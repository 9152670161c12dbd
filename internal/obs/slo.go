package obs

import (
	"fmt"
	"sync"
	"time"
)

// Health states reported by the SLO tracker, ordered by severity.
const (
	StateReady    = "ready"
	StateDegraded = "degraded"
	StateFailing  = "failing"
)

// SLOConfig declares the service-level objectives the tracker burns
// against. The zero value selects the defaults noted per field.
type SLOConfig struct {
	// Availability is the target fraction of requests that must not
	// fail (5xx or shed with 429). Default 0.99.
	Availability float64
	// LatencyTarget is the latency objective: at most
	// (1 - LatencyQuantile) of requests may be slower. Default 2s.
	LatencyTarget time.Duration
	// LatencyQuantile is the quantile the latency objective is stated
	// at. Default 0.99 (a p99 objective).
	LatencyQuantile float64
	// Staleness is the ingest-staleness objective: the age of the
	// oldest event not yet folded into the serving snapshot. Zero
	// disables the objective (static servers have no staleness).
	Staleness time.Duration
	// ShortWindow and LongWindow are the two burn-rate windows
	// (multi-window alerting: the short window catches fast burns, the
	// long window filters transients). Defaults 5m and 1h.
	ShortWindow time.Duration
	LongWindow  time.Duration
	// BurnThreshold is the burn rate at which a window counts as
	// burning: 1.0 consumes the error budget exactly at the rate that
	// exhausts it by the end of the window. Default 2.
	BurnThreshold float64
}

func (c SLOConfig) fill() SLOConfig {
	if c.Availability <= 0 || c.Availability >= 1 {
		c.Availability = 0.99
	}
	if c.LatencyTarget <= 0 {
		c.LatencyTarget = 2 * time.Second
	}
	if c.LatencyQuantile <= 0 || c.LatencyQuantile >= 1 {
		c.LatencyQuantile = 0.99
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = 5 * time.Minute
	}
	if c.LongWindow <= 0 {
		c.LongWindow = time.Hour
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = 2
	}
	return c
}

// sloWindowBuckets is the ring resolution of each rolling window.
const sloWindowBuckets = 32

// sloBucket is one time slice of a rolling window. A slot is reused
// when its epoch falls out of the window, so observation is
// allocation-free.
type sloBucket struct {
	epoch            int64
	reqs, errs, slow uint64
}

type sloWindow struct {
	width   time.Duration
	buckets [sloWindowBuckets]sloBucket
}

func newSLOWindow(span time.Duration) sloWindow {
	w := span / sloWindowBuckets
	if w <= 0 {
		w = 1
	}
	return sloWindow{width: w}
}

func (w *sloWindow) observe(now time.Time, isErr, isSlow bool) {
	epoch := now.UnixNano() / int64(w.width)
	b := &w.buckets[epoch%sloWindowBuckets]
	if b.epoch != epoch {
		*b = sloBucket{epoch: epoch}
	}
	b.reqs++
	if isErr {
		b.errs++
	}
	if isSlow {
		b.slow++
	}
}

func (w *sloWindow) totals(now time.Time) (reqs, errs, slow uint64) {
	epoch := now.UnixNano() / int64(w.width)
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.epoch > epoch-sloWindowBuckets && b.epoch <= epoch {
			reqs += b.reqs
			errs += b.errs
			slow += b.slow
		}
	}
	return reqs, errs, slow
}

// SLOTracker measures availability and latency against declared
// objectives over two rolling windows and computes burn rates — the
// speed at which the error budget is being consumed. Observation is
// mutex-guarded bucket arithmetic: no allocation on the serve path.
type SLOTracker struct {
	cfg SLOConfig
	now func() time.Time

	mu    sync.Mutex
	short sloWindow
	long  sloWindow
}

// NewSLOTracker builds a tracker with cfg (zero fields defaulted).
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.fill()
	return &SLOTracker{
		cfg:   cfg,
		now:   time.Now,
		short: newSLOWindow(cfg.ShortWindow),
		long:  newSLOWindow(cfg.LongWindow),
	}
}

// Observe records one served request. 5xx statuses and 429 sheds count
// against availability; durations over LatencyTarget count against the
// latency objective. Nil-safe and allocation-free.
func (t *SLOTracker) Observe(status int, d time.Duration) {
	if t == nil {
		return
	}
	isErr := status >= 500 || status == 429
	isSlow := d > t.cfg.LatencyTarget
	now := t.now()
	t.mu.Lock()
	t.short.observe(now, isErr, isSlow)
	t.long.observe(now, isErr, isSlow)
	t.mu.Unlock()
}

// WindowBurn is one objective's burn state over one window.
type WindowBurn struct {
	Window string `json:"window"`
	// Value is the measured bad fraction (availability, latency) or
	// the staleness age in seconds.
	Value float64 `json:"value"`
	// BurnRate is Value divided by the objective's error budget; 1.0
	// exhausts the budget exactly at the window's end.
	BurnRate float64 `json:"burnRate"`
	Requests uint64  `json:"requests"`
}

// ObjectiveReport is one objective's state across both windows.
type ObjectiveReport struct {
	Name    string       `json:"name"`
	Target  float64      `json:"target"`
	State   string       `json:"state"`
	Reason  string       `json:"reason,omitempty"`
	Windows []WindowBurn `json:"windows"`
}

// SLOReport is the tracker's full assessment: the worst objective
// state plus the per-objective, per-window burn rates.
type SLOReport struct {
	State         string            `json:"state"`
	BurnThreshold float64           `json:"burnThreshold"`
	Objectives    []ObjectiveReport `json:"objectives"`
}

// Report evaluates every objective now. staleness is the current
// ingest staleness (zero on static systems); it is burned against the
// Staleness objective when one is declared. An objective is failing
// when both windows burn at or above the threshold, degraded when only
// one does, ready otherwise; the report's state is the worst.
func (t *SLOTracker) Report(staleness time.Duration) SLOReport {
	if t == nil {
		return SLOReport{State: StateReady}
	}
	now := t.now()
	t.mu.Lock()
	sReqs, sErrs, sSlow := t.short.totals(now)
	lReqs, lErrs, lSlow := t.long.totals(now)
	t.mu.Unlock()

	rep := SLOReport{State: StateReady, BurnThreshold: t.cfg.BurnThreshold}
	frac := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	add := func(name string, target float64, shortVal, longVal float64, budget float64) {
		o := ObjectiveReport{Name: name, Target: target, State: StateReady}
		for _, wb := range []WindowBurn{
			{Window: t.cfg.ShortWindow.String(), Value: shortVal, Requests: sReqs},
			{Window: t.cfg.LongWindow.String(), Value: longVal, Requests: lReqs},
		} {
			if budget > 0 {
				wb.BurnRate = wb.Value / budget
			}
			o.Windows = append(o.Windows, wb)
		}
		burning := 0
		var worst WindowBurn
		for _, wb := range o.Windows {
			if wb.BurnRate >= t.cfg.BurnThreshold {
				burning++
				if wb.BurnRate >= worst.BurnRate {
					worst = wb
				}
			}
		}
		switch {
		case burning == len(o.Windows):
			o.State = StateFailing
		case burning > 0:
			o.State = StateDegraded
		}
		if burning > 0 {
			o.Reason = fmt.Sprintf("%s burn rate %.2f over %s (threshold %.2f)",
				name, worst.BurnRate, worst.Window, t.cfg.BurnThreshold)
		}
		rep.Objectives = append(rep.Objectives, o)
		if sev(o.State) > sev(rep.State) {
			rep.State = o.State
		}
	}

	add("availability", t.cfg.Availability,
		frac(sErrs, sReqs), frac(lErrs, lReqs), 1-t.cfg.Availability)
	add("latency_p99", t.cfg.LatencyTarget.Seconds(),
		frac(sSlow, sReqs), frac(lSlow, lReqs), 1-t.cfg.LatencyQuantile)
	if t.cfg.Staleness > 0 {
		age := staleness.Seconds()
		add("ingest_staleness", t.cfg.Staleness.Seconds(),
			age, age, t.cfg.Staleness.Seconds())
	}
	return rep
}

func sev(state string) int {
	switch state {
	case StateFailing:
		return 2
	case StateDegraded:
		return 1
	default:
		return 0
	}
}
