package core

import (
	"math"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/obs"
)

// TestTargetedGolden pins the targeted-IM answer on a fixed corpus: the
// exact seeds, their per-seed spreads and the audience spread, to the
// bit, and the RR-sampling work (sets drawn, nodes reached, in-edges
// examined). RR sampling, greedy coverage and the estimate must
// reproduce it whatever shape the sampler's code takes.
func TestTargetedGolden(t *testing.T) {
	s, ds := testSystem(t)
	var audience []graph.NodeID
	for u, mix := range ds.Mixtures {
		if mix.Top(1)[0] == 0 {
			audience = append(audience, graph.NodeID(u))
		}
	}
	if len(audience) != 94 {
		t.Fatalf("audience has %d users, want 94: the corpus changed", len(audience))
	}
	cost := &obs.Cost{}
	res, err := s.DiscoverTargetedInfluencers([]string{"mining", "pattern"}, audience, 5, 3000, 21, cost)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		user   graph.NodeID
		spread uint64
	}{
		{0, 0x4050c16872b020c5},
		{25, 0x40344dd2f1a9fbe7},
		{24, 0x401d33e1f671529a},
		{17, 0x40040da740da740e},
		{238, 0x3ff38d4fdf3b645a},
	}
	if len(res.Seeds) != len(want) {
		t.Fatalf("got %d seeds, want %d", len(res.Seeds), len(want))
	}
	for i, w := range want {
		got := res.Seeds[i]
		if got.User != w.user || math.Float64bits(got.Spread) != w.spread {
			t.Errorf("seed %d = (%d, %#x), want (%d, %#x)",
				i, got.User, math.Float64bits(got.Spread), w.user, w.spread)
		}
	}
	if bits := math.Float64bits(res.AudienceSpread); bits != 0x4052a0aec33e1f67 {
		t.Errorf("audience spread = %#x (%v), want 0x4052a0aec33e1f67", bits, res.AudienceSpread)
	}
	if want := (obs.RISCost{Samples: 3000, Nodes: 12743, Edges: 42371}); cost.RIS != want {
		t.Errorf("RIS work = %+v, want %+v", cost.RIS, want)
	}
}
