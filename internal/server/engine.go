// engine.go is the seam between the HTTP serving layer and where
// answers actually come from. The query path (qserve.go) never touches
// core.System directly: it pins an engineView and dispatches endpoints
// against it — the cached read endpoints and POST /api/im/targeted
// alike, all through compute. Two implementations exist — localEngine,
// the in-process system every single-node server uses, and
// remoteEngine (coord.go), the shard client a coordinator fans queries
// out through. Everything above the interface (cache, coalescing,
// admission, metrics, tracing, explain envelopes) is shared verbatim,
// which is what keeps a 1-shard coordinator byte-identical to a
// single-process server.
package server

import (
	"net/http"
	"sync/atomic"

	"octopus/internal/core"
)

// engine hands out pinned views: an immutable answer source plus the
// generation it serves. The release callback must be called when the
// request is done with the view.
type engine interface {
	Acquire() (engineView, uint64, func())
}

// engineView answers queries entirely from one pinned state — a
// snapshot locally, a fixed fleet roster remotely. Responses must be a
// pure function of (view, request): the result cache's byte-identical
// replay guarantee rests on it.
type engineView interface {
	// Query runs one engine endpoint: a cached read endpoint (im,
	// suggest, keywords, radar, paths, complete) or targeted (POST
	// /api/im/targeted, body in r). It writes the complete response,
	// including error payloads; the serving layer's compute is its only
	// caller.
	Query(endpoint string, w http.ResponseWriter, r *http.Request)
	// Status answers GET /api/status.
	Status(w http.ResponseWriter, r *http.Request)
	// Owners answers GET /api/owners: the user keys the view holds data
	// for (core.System.HeldUserKeys).
	Owners(w http.ResponseWriter, r *http.Request)
}

// localEngine is the in-process implementation: views are the
// (system, generation) pairs its Source pins — a constant on a static
// server, the current snapshot on a live or replica one. The view of
// the last system pinned is kept, so pinning the same system again
// builds nothing.
type localEngine struct {
	s    *Server
	src  Source
	view atomic.Pointer[localView]
}

func (e *localEngine) Acquire() (engineView, uint64, func()) {
	sys, gen, rel := e.src.Acquire()
	v := e.view.Load()
	if v == nil || v.sys != sys {
		v = &localView{s: e.s, sys: sys}
		e.view.Store(v)
	}
	return v, gen, rel
}

// localView answers from one pinned core.System.
type localView struct {
	s   *Server
	sys *core.System
}

func (v *localView) Query(endpoint string, w http.ResponseWriter, r *http.Request) {
	v.s.queryHandlers[endpoint](v.sys, w, r)
}

func (v *localView) Status(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, v.sys.Stats())
}

func (v *localView) Owners(w http.ResponseWriter, r *http.Request) {
	keys := v.sys.HeldUserKeys()
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, http.StatusOK, keys)
}
