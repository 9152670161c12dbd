// Package obs is the observability substrate of the OCTOPUS server:
// latency histograms, a pull-model metrics registry with Prometheus
// text exposition, per-request tracing with a bounded in-memory ring,
// and small logging helpers. It sits below every other layer (stdlib
// only, no repo imports) so qcache, store, stream, core and server can
// all instrument themselves without creating dependency cycles.
//
// The pieces:
//
//   - Histogram: a fixed-size power-of-two latency histogram with
//     in-bucket linear interpolation for quantiles. Shared by the
//     serving metrics (/api/metrics, Retry-After) and the WAL/checkpoint
//     instruments.
//
//   - Registry / Collector / MetricWriter: a pull-model registry. A
//     Collector writes samples into a MetricWriter at scrape time; the
//     registry renders all families sorted, grouped and typed in the
//     Prometheus text exposition format (version 0.0.4) for GET /metrics.
//
//   - Tracer / ActiveTrace: lightweight request tracing. Each request
//     gets a trace id (the X-Octopus-Trace header; a well-formed id the
//     request arrived with is adopted, so a coordinator's shards trace
//     under its id), a span per serving stage (cache → coalesce → gate
//     → engine) opened through a value SpanHandle, and the pinned
//     snapshot generation. Completed traces are copied by value into a
//     bounded ring of preallocated slots served by GET
//     /api/debug/traces, and the ActiveTrace is recycled; traces slower
//     than a threshold are also emitted as structured slog records (the
//     slow-query log).
//
//   - ParseExposition: a small parser/linter for the text exposition
//     format, used by tests and the CI observability smoke step to
//     verify /metrics output without external tooling.
package obs

import (
	"context"
	"log/slog"
)

// NopLogger returns a logger that discards every record. Used as the
// default wherever a *slog.Logger is optional, so callers never need
// nil checks. (go 1.22 has no slog.DiscardHandler yet.)
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }
