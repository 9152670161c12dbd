package tic

import (
	"bytes"
	"testing"
	"testing/quick"

	"octopus/internal/arena"
	"octopus/internal/graph"
	"octopus/internal/rng"
	"octopus/internal/topic"
)

// remappedModel carries lineModel through Remap onto a grown graph —
// one extra node, one extra edge with an explicit prior, mirroring what
// a streaming fold produces. It returns the remapped model and the
// prior assigned to the new edge (2,3).
func remappedModel(t *testing.T) (*Model, []float64) {
	t.Helper()
	m := lineModel(t)
	gb := graph.NewBuilder(m.Graph().NumNodes())
	gb.AddGraph(m.Graph())
	gb.AddEdge(2, 3) // grows the graph to 4 nodes
	grown := gb.Build()
	prior := []float64{0.25, 0.125}
	m2, err := Remap(m, grown, func(u, v graph.NodeID) []float64 {
		if u == 2 && v == 3 {
			return prior
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m2, prior
}

// roundTrip writes m with the snapshot store's codec and reads it back
// bound to m's graph, returning the model and the bytes written.
func roundTrip(t *testing.T, m *Model) (*Model, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadView(arena.NewReader(buf.Bytes()), m.Graph())
	if err != nil {
		t.Fatal(err)
	}
	return m2, buf.Bytes()
}

func TestModelRoundTrip(t *testing.T) {
	m := lineModel(t)
	m2, _ := roundTrip(t, m)
	if m2.NumTopics() != m.NumTopics() {
		t.Fatalf("topics: %d vs %d", m2.NumTopics(), m.NumTopics())
	}
	for e := 0; e < m.Graph().NumEdges(); e++ {
		for z := 0; z < m.NumTopics(); z++ {
			a, b := m.TopicProb(graph.EdgeID(e), z), m2.TopicProb(graph.EdgeID(e), z)
			if a != b {
				t.Fatalf("edge %d topic %d: %v vs %v", e, z, a, b)
			}
		}
		if m.MaxProb(graph.EdgeID(e)) != m2.MaxProb(graph.EdgeID(e)) {
			t.Fatalf("edge %d max prob differs", e)
		}
	}
}

// TestRemappedModelRoundTrip carries a remapped model through two
// persist/reload cycles, as a recovered system re-persists at its next
// checkpoint: the model stays equal and the second cycle writes the
// same bytes as the first.
func TestRemappedModelRoundTrip(t *testing.T) {
	m2, prior := remappedModel(t)
	m3, first := roundTrip(t, m2)
	m4, second := roundTrip(t, m3)
	assertModelsEqual(t, m2, m4, prior)
	if !bytes.Equal(first, second) {
		t.Fatalf("second cycle changed the bytes: %d vs %d bytes", len(first), len(second))
	}
}

// TestRemappedModelBinaryRoundTrip round-trips a model that went
// through Remap onto a grown graph — the state a live fold leaves
// behind — through the snapshot store's codec.
func TestRemappedModelBinaryRoundTrip(t *testing.T) {
	m2, prior := remappedModel(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m2); err != nil {
		t.Fatal(err)
	}
	m3, err := ReadView(arena.NewReader(buf.Bytes()), m2.Graph())
	if err != nil {
		t.Fatal(err)
	}
	assertModelsEqual(t, m2, m3, prior)
	// Binary rejects a graph with a different edge count.
	var buf2 bytes.Buffer
	if err := WriteBinary(&buf2, m2); err != nil {
		t.Fatal(err)
	}
	small := lineModel(t).Graph()
	if _, err := ReadView(arena.NewReader(buf2.Bytes()), small); err == nil {
		t.Fatal("binary read bound to wrong graph succeeded")
	}
}

func assertModelsEqual(t *testing.T, want, got *Model, newEdgePrior []float64) {
	t.Helper()
	if got.NumTopics() != want.NumTopics() {
		t.Fatalf("topics: %d vs %d", got.NumTopics(), want.NumTopics())
	}
	g := want.Graph()
	for e := 0; e < g.NumEdges(); e++ {
		for z := 0; z < want.NumTopics(); z++ {
			a, b := want.TopicProb(graph.EdgeID(e), z), got.TopicProb(graph.EdgeID(e), z)
			if a != b {
				t.Fatalf("edge %d topic %d: %v vs %v", e, z, a, b)
			}
		}
		if want.MaxProb(graph.EdgeID(e)) != got.MaxProb(graph.EdgeID(e)) {
			t.Fatalf("edge %d max prob differs", e)
		}
	}
	// The fold-added edge carries its prior through the codec.
	eNew, ok := g.FindEdge(2, 3)
	if !ok {
		t.Fatal("grown edge (2,3) missing")
	}
	for z, p := range newEdgePrior {
		if got.TopicProb(eNew, z) != p {
			t.Fatalf("new edge prior topic %d = %v, want %v", z, got.TopicProb(eNew, z), p)
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	m := lineModel(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 3 {
		if _, err := ReadView(arena.NewReader(full[:cut]), m.Graph()); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestModelRoundTripQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(15)
		gb := graph.NewBuilder(n)
		for i := 0; i < n*3; i++ {
			gb.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := gb.Build()
		z := 2 + r.Intn(5)
		mb := NewBuilder(g, z)
		for e := 0; e < g.NumEdges(); e++ {
			for k := 0; k < 2; k++ {
				if err := mb.SetProb(graph.EdgeID(e), r.Intn(z), r.Float64()); err != nil {
					return false
				}
			}
		}
		m := mb.Build()
		var buf bytes.Buffer
		if WriteBinary(&buf, m) != nil {
			return false
		}
		m2, err := ReadView(arena.NewReader(buf.Bytes()), g)
		if err != nil {
			return false
		}
		gamma := topic.Uniform(z)
		for e := 0; e < g.NumEdges(); e++ {
			id := graph.EdgeID(e)
			if m.EdgeProb(id, gamma) != m2.EdgeProb(id, gamma) || m.MaxProb(id) != m2.MaxProb(id) {
				return false
			}
			for k := 0; k < z; k++ {
				if m.TopicProb(id, k) != m2.TopicProb(id, k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
