package topic

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"octopus/internal/arena"
)

func TestModelIORoundTrip(t *testing.T) {
	m := testModel(t)
	if err := m.SetTopicNames([]string{"data mining", "social nets", "ML"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumTopics() != m.NumTopics() || m2.VocabSize() != m.VocabSize() {
		t.Fatalf("shape: %d/%d vs %d/%d", m2.NumTopics(), m2.VocabSize(), m.NumTopics(), m.VocabSize())
	}
	if m2.TopicName(1) != "social nets" {
		t.Fatalf("name lost: %q", m2.TopicName(1))
	}
	// p(w|z) must round-trip up to the model's smoothing epsilon (Read
	// re-applies the 1e-9 floor of NewModel).
	for _, q := range [][]string{{"data"}, {"network", "social"}, {"learning", "neural"}} {
		g1, _ := m.InferGamma(q)
		g2, _ := m2.InferGamma(q)
		if g1.L1(g2) > 1e-6 {
			t.Fatalf("inference differs after round trip: %v vs %v", g1, g2)
		}
	}
	if m.Prior().L1(m2.Prior()) > 1e-9 {
		t.Fatalf("prior differs")
	}
}

func TestModelIORoundTripNoNames(t *testing.T) {
	m := testModel(t)
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.TopicName(0) != "topic-0" {
		t.Fatalf("unexpected name %q", m2.TopicName(0))
	}
}

// TestCarriedModelRoundTrip mirrors the keyword model's life across
// streaming folds: the base model (with display names) is carried onto
// each rebuilt snapshot unchanged, then persisted and reloaded — twice,
// because a recovered system re-persists at its next checkpoint. The
// codecs must be stable under repeated round trips.
func TestCarriedModelRoundTrip(t *testing.T) {
	m := testModel(t)
	if err := m.SetTopicNames([]string{"data mining", "social nets", "ML"}); err != nil {
		t.Fatal(err)
	}
	cur := m
	for cycle := 0; cycle < 2; cycle++ {
		var buf bytes.Buffer
		if err := Write(&buf, cur); err != nil {
			t.Fatal(err)
		}
		next, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if cur.TopicName(1) != "social nets" {
		t.Fatalf("name drifted: %q", cur.TopicName(1))
	}
	for _, q := range [][]string{{"data", "mining"}, {"social"}} {
		g1, _ := m.InferGamma(q)
		g2, _ := cur.InferGamma(q)
		if g1.L1(g2) > 1e-6 {
			t.Fatalf("inference drifted after two round trips: %v vs %v", g1, g2)
		}
	}
}

// TestBinaryRoundTrip checks the snapshot store's codec reproduces the
// model bit-for-bit (no smoothing re-application).
func TestBinaryRoundTrip(t *testing.T) {
	m := testModel(t)
	if err := m.SetTopicNames([]string{"data mining", "social nets", "ML"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadView(arena.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumTopics() != m.NumTopics() || m2.VocabSize() != m.VocabSize() {
		t.Fatalf("shape: %d/%d vs %d/%d", m2.NumTopics(), m2.VocabSize(), m.NumTopics(), m.VocabSize())
	}
	if m2.TopicName(2) != "ML" {
		t.Fatalf("name lost: %q", m2.TopicName(2))
	}
	for z := 0; z < m.NumTopics(); z++ {
		for w := 0; w < m.VocabSize(); w++ {
			if m.PWZ(z, w) != m2.PWZ(z, w) {
				t.Fatalf("p(w|z)[%d][%d] not bit-identical: %v vs %v", z, w, m.PWZ(z, w), m2.PWZ(z, w))
			}
		}
	}
	for _, q := range [][]string{{"data"}, {"network", "learning"}} {
		g1, _ := m.InferGamma(q)
		g2, _ := m2.InferGamma(q)
		if g1.L1(g2) != 0 {
			t.Fatalf("binary inference not identical: %v vs %v", g1, g2)
		}
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

func TestModelIOErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus 1 2",
		"topicmodel x 2",
		"topicmodel 2 2\nprior 0.5",          // short prior
		"topicmodel 2 1\nw a 0.5",            // short keyword probs
		"topicmodel 2 1\ntname 9 x\nw a 1 1", // bad topic index
		"topicmodel 2 2\nw a 1 1",            // vocab count mismatch
		"topicmodel 2 1\nzzz",                // unknown record
		"topicmodel 2 1\nw a bad 1",          // bad probability
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("Read(%q) succeeded", c)
		}
	}
}

func TestModelIOMultiWordTopicNames(t *testing.T) {
	m := testModel(t)
	if err := m.SetTopicNames([]string{"a b c", "d", "e f"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.TopicName(0) != "a b c" || m2.TopicName(2) != "e f" {
		t.Fatalf("multi-word names lost: %q %q", m2.TopicName(0), m2.TopicName(2))
	}
}

func TestModelIOPriorPreserved(t *testing.T) {
	vocab := []string{"x", "y"}
	pwz := [][]float64{{1, 0}, {0, 1}}
	m, err := NewModel(vocab, pwz, Dist{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m2.Prior()[0]-0.8) > 1e-9 {
		t.Fatalf("prior = %v", m2.Prior())
	}
}
