package main

import (
	"net/http"
	"net/http/httptest"

	"octopus/internal/core"
	"octopus/internal/server"
)

// inProcess builds the in-process server over a system: the reference
// the real binary's answers are byte-compared with, and the `server`
// entry point of the traced run.
func inProcess(sys *core.System, cacheEntries, traceRing int) *server.Server {
	return server.NewWith(sys, server.Options{CacheEntries: cacheEntries, TraceRing: traceRing})
}

// serve answers one GET in-process and returns status and body.
func serve(h http.Handler, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}
