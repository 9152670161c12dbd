// fold.go is the cheap path of live system construction. A delta that
// leaves the graph unchanged (new items and actions only) changes
// neither the propagation model nor the two indexes — both are pure
// functions of (model, options, seed) — so the next system shares all
// of them and rebuilds only the log-derived structures. A delta that
// touches the graph takes Build instead; no index is maintained
// incrementally.
package core

import (
	"fmt"
	"time"

	"octopus/internal/actionlog"
)

// Fold builds the next System over old's graph from the merged action
// log, sharing old's graph, models and both indexes wholesale and
// rebuilding only the derived structures. cfg must be old.BuildConfig()
// (Workers and TopicNames may differ): the result is query-for-query
// identical to Build over the same graph and log with old's models as
// ground truth at cfg.Seed. log must cover exactly old's nodes; a delta
// that grows or rewires the graph needs Build.
func Fold(old *System, log *actionlog.Log, cfg Config) (*System, error) {
	start := time.Now()
	if old == nil {
		return nil, fmt.Errorf("core: fold from nil system")
	}
	if n := old.g.NumNodes(); log != nil && log.NumUsers != n {
		return nil, fmt.Errorf("core: fold: log covers %d users, graph has %d nodes (rebuild required)",
			log.NumUsers, n)
	}
	// Record the shared models in the stored config exactly as a
	// carry-over Build would see them, so the folded system's
	// BuildConfig stays a valid basis for the next fold or rebuild.
	cfg.GroundTruth = old.prop
	cfg.GroundTruthWords = old.words
	sys, err := assemble(old.g, log, old.prop, old.words, old.otimIdx, old.tagsIdx, cfg)
	if err != nil {
		return nil, err
	}
	stageStart := time.Now()
	sys.finish()
	sys.timings = BuildTimings{
		Derived:     time.Since(stageStart),
		Total:       time.Since(start),
		Incremental: true,
	}
	return sys, nil
}
