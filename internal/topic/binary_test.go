package topic

import (
	"bytes"
	"math"
	"testing"

	"octopus/internal/arena"
)

// roundTrip writes m with the snapshot store's codec and reads it back.
func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadView(arena.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return m2
}

// checkRoundTrip sends m through the snapshot store's codec cycles
// times and checks the result reproduces m bit-for-bit (no smoothing
// re-application): p(w|z), the prior, the topic names in names and
// inference.
func checkRoundTrip(t *testing.T, m *Model, cycles int, names []string) {
	t.Helper()
	m2 := m
	for i := 0; i < cycles; i++ {
		m2 = roundTrip(t, m2)
	}
	if m2.NumTopics() != m.NumTopics() || m2.VocabSize() != m.VocabSize() {
		t.Fatalf("shape: %d/%d vs %d/%d", m2.NumTopics(), m2.VocabSize(), m.NumTopics(), m.VocabSize())
	}
	for z, want := range names {
		if got := m2.TopicName(z); got != want {
			t.Fatalf("TopicName(%d) = %q, want %q", z, got, want)
		}
	}
	for z, p := range m.Prior() {
		if math.Float64bits(m2.Prior()[z]) != math.Float64bits(p) {
			t.Fatalf("prior[%d] not bit-identical: %v vs %v", z, p, m2.Prior()[z])
		}
	}
	for z := 0; z < m.NumTopics(); z++ {
		for w := 0; w < m.VocabSize(); w++ {
			if math.Float64bits(m.PWZ(z, w)) != math.Float64bits(m2.PWZ(z, w)) {
				t.Fatalf("p(w|z)[%d][%d] not bit-identical: %v vs %v", z, w, m.PWZ(z, w), m2.PWZ(z, w))
			}
		}
	}
	for _, q := range [][]string{m.Vocab()[:1], m.Vocab()} {
		g1, _ := m.InferGamma(q)
		g2, _ := m2.InferGamma(q)
		if g1.L1(g2) != 0 {
			t.Fatalf("inference not identical for %v: %v vs %v", q, g1, g2)
		}
	}
}

// namedModel is testModel with display names on its three topics.
func namedModel(t *testing.T, names ...string) *Model {
	t.Helper()
	m := testModel(t)
	if err := m.SetTopicNames(names); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBinaryRoundTrip(t *testing.T) {
	names := []string{"data mining", "social nets", "ML"}
	checkRoundTrip(t, namedModel(t, names...), 1, names)
}

// TestModelIORoundTrip checks the codec is a fixed point: re-encoding a
// model read back from its bytes yields the same bytes.
func TestModelIORoundTrip(t *testing.T) {
	m := namedModel(t, "data mining", "social nets", "ML")
	var first, second bytes.Buffer
	if err := WriteBinary(&first, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&second, roundTrip(t, m)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encoding changed the bytes: %d vs %d bytes", first.Len(), second.Len())
	}
}

func TestModelIORoundTripNoNames(t *testing.T) {
	checkRoundTrip(t, testModel(t), 1, []string{"topic-0", "topic-1", "topic-2"})
}

// TestCarriedModelRoundTrip mirrors the keyword model's life across
// streaming folds: the base model (with display names) is carried onto
// each rebuilt snapshot unchanged, then persisted and reloaded — twice,
// because a recovered system re-persists at its next checkpoint.
func TestCarriedModelRoundTrip(t *testing.T) {
	names := []string{"data mining", "social nets", "ML"}
	checkRoundTrip(t, namedModel(t, names...), 2, names)
}

func TestModelIOMultiWordTopicNames(t *testing.T) {
	names := []string{"a b c", "d", "e f"}
	checkRoundTrip(t, namedModel(t, names...), 1, names)
}

func TestModelIOPriorPreserved(t *testing.T) {
	m, err := NewModel([]string{"x", "y"}, [][]float64{{1, 0}, {0, 1}}, Dist{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, m, 1, []string{"topic-0", "topic-1"})
	if got := roundTrip(t, m).Prior()[0]; got != 0.8 {
		t.Fatalf("prior[0] = %v, want 0.8", got)
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	m := testModel(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 5 {
		if _, err := ReadView(arena.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
