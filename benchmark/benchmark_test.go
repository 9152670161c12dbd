package main

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"octopus/internal/actionlog"
)

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 200; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 100}, {0.95, 190}, {0.99, 198}, {1, 200}, {0.001, 1}} {
		if got := percentile(d, c.p); got != c.want {
			t.Errorf("percentile(1..200, %g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]time.Duration{7}, 0.5); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
}

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	// Built by hand: server 100 → core 70 → {otim 50, topic 5}.
	tr.spans = []span{
		{ID: 0, Parent: -1, Trace: 0, Kind: "im", Name: "server", Start: 0, End: 100},
		{ID: 1, Parent: 0, Trace: 0, Kind: "im", Name: "core", Start: 200, End: 270},
		{ID: 2, Parent: 1, Trace: 0, Kind: "im", Name: "otim", Start: 300, End: 350},
		{ID: 3, Parent: 1, Trace: 0, Kind: "im", Name: "topic", Start: 400, End: 405},
		{ID: 4, Parent: -1, Trace: 1, Kind: "paths", Name: "server", Start: 500, End: 520},
	}
	self := selfTimes(tr.spans)
	want := map[layerKey][]time.Duration{
		{"im", "server"}:    {30},
		{"im", "core"}:      {15},
		{"im", "otim"}:      {50},
		{"im", "topic"}:     {5},
		{"paths", "server"}: {20},
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	// Self times of one request add back up to its outermost span.
	var sum time.Duration
	for k, v := range self {
		if k.kind == "im" {
			sum += v[0]
		}
	}
	if sum != 100 {
		t.Errorf("im self times sum to %d, want the server span's 100", sum)
	}
	id := tr.synthetic(1, "paths", "topic", 4, 3)
	if s := tr.spans[id]; s.Parent != 4 || s.End-s.Start != 3 || s.Start != 500 {
		t.Errorf("synthetic span = %+v", s)
	}
}

func testPopulation() *population {
	p := &population{}
	for i := 0; i < 96; i++ {
		p.vocab = append(p.vocab, "w"+string(rune('a'+i%26))+string(rune('a'+i/26)))
	}
	total := 0.0
	for i := 0; i < 2000; i++ {
		p.users = append(p.users, "User "+string(rune('A'+i%26))+" "+time.Duration(i).String())
		total += float64(1 + i%17)
		p.cumDegree = append(p.cumDegree, total)
	}
	return p
}

func TestRequestListsAreDeterministicPerSeed(t *testing.T) {
	p := testPopulation()
	gen := func(seed int64) ([]request, []request) {
		r := rand.New(rand.NewSource(seed))
		pool := p.mixed(r, 200)
		return pool, zipfDraws(r, pool, 5000)
	}
	pool1, draws1 := gen(7)
	pool2, draws2 := gen(7)
	if !reflect.DeepEqual(pool1, pool2) || !reflect.DeepEqual(draws1, draws2) {
		t.Fatal("same seed gave different request lists")
	}
	pool3, draws3 := gen(8)
	if reflect.DeepEqual(pool1, pool3) || reflect.DeepEqual(draws1, draws3) {
		t.Fatal("different seeds gave the same request lists")
	}

	// The mix is exact and the pool has no repeats.
	var kinds [numKinds]int
	seen := map[string]bool{}
	for _, q := range pool1 {
		kinds[q.kind]++
		if seen[q.path] {
			t.Fatalf("pool repeats %s", q.path)
		}
		seen[q.path] = true
	}
	if kinds != [numKinds]int{100, 50, 50} {
		t.Errorf("mix = %v, want 50%%/25%%/25%%", kinds)
	}
	// Zipf: every draw is from the pool and rank 0 is the hottest.
	count := map[string]int{}
	for _, q := range draws1 {
		if !seen[q.path] {
			t.Fatalf("draw %s is not in the pool", q.path)
		}
		count[q.path]++
	}
	for path, n := range count {
		if n > count[pool1[0].path] {
			t.Errorf("%s drawn %d times, more than rank 0's %d", path, n, count[pool1[0].path])
		}
	}
}

func TestScheduleTimesFromDueTimeAndReportsLag(t *testing.T) {
	s := schedule{start: time.Now().Add(30 * time.Millisecond), interval: 10 * time.Millisecond}
	if got := s.due(3).Sub(s.start); got != 30*time.Millisecond {
		t.Errorf("due(3) is %s after start, want 30ms", got)
	}
	if lag := s.wait(0); lag > 20*time.Millisecond {
		t.Errorf("on-time send reported lag %s", lag)
	}
	if now := time.Now(); now.Before(s.due(0)) {
		t.Errorf("wait returned %s before the send was due", s.due(0).Sub(now))
	}
	// A generator held up for 50 ms finds send 1 overdue: it goes out at
	// once, the lag says how late, and due(1) — what latencies are taken
	// from — has not moved.
	time.Sleep(50 * time.Millisecond)
	before := time.Now()
	lag := s.wait(1)
	if time.Since(before) > 10*time.Millisecond {
		t.Error("overdue send waited")
	}
	if lag < 30*time.Millisecond {
		t.Errorf("overdue send reported lag %s, want ≥ 30ms", lag)
	}
	if got := s.due(1).Sub(s.start); got != 10*time.Millisecond {
		t.Errorf("due(1) moved to %s after start", got)
	}
}

func testEpisodes(n int) []actionlog.Episode {
	r := rand.New(rand.NewSource(3))
	eps := make([]actionlog.Episode, n)
	for i := range eps {
		id := int32(1000 + i)
		eps[i].Item = actionlog.Item{ID: id, Keywords: []string{"a", "b"}}
		for a := 0; a < 1+r.Intn(12); a++ {
			eps[i].Actions = append(eps[i].Actions, actionlog.Action{User: int32(r.Intn(500)), Item: id, Time: int64(a)})
		}
	}
	return eps
}

func TestStreamCutIsExactAndTimeOrdered(t *testing.T) {
	var edges [][2]int32
	for i := 0; i < 640; i++ {
		edges = append(edges, [2]int32{int32(i), int32(i + 1)})
	}
	const folds = 3
	stream, err := cutStream(testEpisodes(4000), edges, folds*foldBatches+drillBatches)
	if err != nil {
		t.Fatal(err)
	}
	main, drill := stream[:folds*foldBatches], stream[folds*foldBatches:]
	if n, _, _ := countBatches(main); n != folds*4100 {
		t.Errorf("stream has %d events, want %d folds × 4100", n, folds)
	}
	if n, _, _ := countBatches(drill); n != 1000 {
		t.Errorf("crash drill has %d events, want 1000", n)
	}
	total, _, edgeEvents := countBatches(stream)
	if share := float64(edgeEvents) / float64(total); share < 0.01 || share > 0.03 {
		t.Errorf("edges are %.1f %% of the stream, want ≈2 %%", 100*share)
	}
	for f := 0; f < folds; f++ {
		if _, _, e := countBatches(main[f*foldBatches : (f+1)*foldBatches]); e == 0 {
			t.Errorf("fold %d carries no edge", f)
		}
	}

	// Decode what goes over the wire: every batch is 50 events, every
	// action follows its item, and time never runs backwards — items in
	// id order, each episode's actions in tick order.
	lastItem, lastTick := int32(-1), map[int32]int64{}
	for i, b := range stream {
		if b.events != batchEvents {
			t.Fatalf("batch %d has %d events", i, b.events)
		}
		if b.path == "/api/ingest/edges" {
			var w wireEdges
			if err := json.Unmarshal(b.body, &w); err != nil || len(w.Edges) != batchEvents {
				t.Fatalf("batch %d: %d edges, err %v", i, len(w.Edges), err)
			}
			continue
		}
		var w wireActions
		if err := json.Unmarshal(b.body, &w); err != nil || len(w.Items)+len(w.Actions) != batchEvents {
			t.Fatalf("batch %d: %d items + %d actions, err %v", i, len(w.Items), len(w.Actions), err)
		}
		for _, it := range w.Items {
			if it.ID <= lastItem {
				t.Fatalf("batch %d: item %d after item %d", i, it.ID, lastItem)
			}
			lastItem = it.ID
			lastTick[it.ID] = -1
		}
		for _, a := range w.Actions {
			tick, known := lastTick[a.Item]
			if !known {
				t.Fatalf("batch %d: action on item %d before the item", i, a.Item)
			}
			if a.Time < tick {
				t.Fatalf("batch %d: item %d tick %d after tick %d", i, a.Item, a.Time, tick)
			}
			lastTick[a.Item] = a.Time
		}
	}
	if _, err := cutStream(testEpisodes(10), nil, foldBatches); err == nil {
		t.Error("a stream too short for the cut was not reported")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "im_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		def        metricDef
		base, next []float64
		want       string
	}{
		{lower, []float64{10}, []float64{10.9}, "ok"},
		{lower, []float64{10}, []float64{11.1}, "worse"},
		{lower, []float64{10}, []float64{5}, "ok"},
		{higher, []float64{100}, []float64{91}, "ok"},
		{higher, []float64{100}, []float64{89}, "worse"},
		{higher, []float64{100}, []float64{150}, "ok"},
		{lower, []float64{10, 12}, []float64{13}, "unresolved"}, // base's own runs differ by more than the bound
		{lower, []float64{10, 10.5}, []float64{12, 12.2}, "worse"},
		{lower, []float64{0}, []float64{1}, "unresolved"},
	} {
		if _, got := verdict(c.def, c.base, c.next); got != c.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", c.def.Name, c.base, c.next, got, c.want)
		}
	}
}

// The manifest is the single list of what is gated; the harness must be
// able to produce every metric it names, under the workloads it names.
func TestManifestMatchesHarness(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames)
	}
	setup := false
	for _, d := range m.EndToEnd {
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s in seconds, lower is better")
	}
}
