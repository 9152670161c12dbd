package topic

import (
	"math"
	"testing"
	"testing/quick"

	"octopus/internal/rng"
)

// testModel builds a 3-topic model over a 6-word vocabulary with sharply
// separated topics: words 0-1 belong to topic 0, 2-3 to topic 1, 4-5 to
// topic 2.
func testModel(t *testing.T) *Model {
	t.Helper()
	vocab := []string{"data", "mining", "network", "social", "learning", "neural"}
	pwz := [][]float64{
		{0.5, 0.5, 0, 0, 0, 0},
		{0, 0, 0.5, 0.5, 0, 0},
		{0, 0, 0, 0, 0.5, 0.5},
	}
	m, err := NewModel(vocab, pwz, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestUniformPure(t *testing.T) {
	u := Uniform(4)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	if u[2] != 0.25 {
		t.Fatalf("uniform = %v", u)
	}
	p := Pure(1, 3)
	if p[1] != 1 || p[0] != 0 {
		t.Fatalf("pure = %v", p)
	}
}

func TestNormalizeZero(t *testing.T) {
	d := Dist{0, 0, 0}
	d.Normalize()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Dist{
		{},
		{0.5, 0.6},
		{-0.1, 1.1},
		{math.NaN(), 1},
		{math.Inf(1), 0},
	}
	for i, d := range bad {
		if d.Validate() == nil {
			t.Fatalf("case %d: Validate accepted %v", i, d)
		}
	}
}

func TestDistances(t *testing.T) {
	a := Dist{1, 0}
	b := Dist{0, 1}
	if got := a.L1(b); got != 2 {
		t.Fatalf("L1 = %v", got)
	}
	if got := a.Cosine(b); got != 0 {
		t.Fatalf("Cosine orthogonal = %v", got)
	}
	if got := a.Cosine(a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Cosine self = %v", got)
	}
}

func TestTop(t *testing.T) {
	d := Dist{0.1, 0.5, 0.4}
	top := d.Top(2)
	if top[0] != 1 || top[1] != 2 {
		t.Fatalf("Top = %v", top)
	}
	if got := d.Top(10); len(got) != 3 {
		t.Fatalf("Top(10) len = %d", len(got))
	}
}

func TestNewModelErrors(t *testing.T) {
	vocab := []string{"a", "b"}
	ok := [][]float64{{1, 1}, {1, 1}}
	cases := []struct {
		name  string
		vocab []string
		pwz   [][]float64
		prior Dist
	}{
		{"no topics", vocab, nil, nil},
		{"no vocab", nil, ok, nil},
		{"row mismatch", vocab, [][]float64{{1}}, nil},
		{"prior mismatch", vocab, ok, Dist{1}},
		{"dup keyword", []string{"a", "a"}, ok, nil},
		{"empty keyword", []string{"a", ""}, ok, nil},
		{"negative prob", vocab, [][]float64{{-1, 1}, {1, 1}}, nil},
	}
	for _, c := range cases {
		if _, err := NewModel(c.vocab, c.pwz, c.prior); err == nil {
			t.Fatalf("%s: NewModel succeeded", c.name)
		}
	}
}

func TestInferGammaSharp(t *testing.T) {
	m := testModel(t)
	g, unknown := m.InferGamma([]string{"data", "mining"})
	if len(unknown) != 0 {
		t.Fatalf("unknown = %v", unknown)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g[0] < 0.99 {
		t.Fatalf("γ = %v, want concentrated on topic 0", g)
	}
}

func TestInferGammaMixed(t *testing.T) {
	m := testModel(t)
	g, _ := m.InferGamma([]string{"data", "network"})
	// data→topic0, network→topic1: should be split between 0 and 1.
	if math.Abs(g[0]-g[1]) > 1e-6 || g[2] > 0.01 {
		t.Fatalf("γ = %v, want even split on topics 0,1", g)
	}
}

func TestInferGammaUnknown(t *testing.T) {
	m := testModel(t)
	g, unknown := m.InferGamma([]string{"quantum", "blockchain"})
	if len(unknown) != 2 {
		t.Fatalf("unknown = %v", unknown)
	}
	// Falls back to prior (uniform).
	for z := 0; z < 3; z++ {
		if math.Abs(g[z]-1.0/3) > 1e-9 {
			t.Fatalf("γ = %v, want prior", g)
		}
	}
}

func TestRadar(t *testing.T) {
	m := testModel(t)
	r, ok := m.Radar("social")
	if !ok {
		t.Fatal("Radar miss")
	}
	if r[1] < 0.99 {
		t.Fatalf("radar(social) = %v, want topic 1", r)
	}
	if _, ok := m.Radar("nope"); ok {
		t.Fatal("Radar hit for unknown keyword")
	}
}

func TestKeywordCoherence(t *testing.T) {
	m := testModel(t)
	same, ok := m.KeywordCoherence("data", "mining")
	if !ok || same < 0.99 {
		t.Fatalf("coherence(data,mining) = %v,%v", same, ok)
	}
	diff, ok := m.KeywordCoherence("data", "neural")
	if !ok || diff > 0.2 {
		t.Fatalf("coherence(data,neural) = %v,%v", diff, ok)
	}
	if _, ok := m.KeywordCoherence("data", "nope"); ok {
		t.Fatal("coherence with unknown keyword reported ok")
	}
}

func TestTopicNames(t *testing.T) {
	m := testModel(t)
	if m.TopicName(0) != "topic-0" {
		t.Fatalf("default name = %q", m.TopicName(0))
	}
	if err := m.SetTopicNames([]string{"DM", "SN", "ML"}); err != nil {
		t.Fatal(err)
	}
	if m.TopicName(2) != "ML" {
		t.Fatalf("name = %q", m.TopicName(2))
	}
	if err := m.SetTopicNames([]string{"x"}); err == nil {
		t.Fatal("SetTopicNames accepted wrong length")
	}
}

func TestAccessors(t *testing.T) {
	m := testModel(t)
	if m.NumTopics() != 3 || m.VocabSize() != 6 {
		t.Fatalf("Z=%d V=%d", m.NumTopics(), m.VocabSize())
	}
	id, ok := m.KeywordID("network")
	if !ok || m.Keyword(id) != "network" {
		t.Fatalf("keyword round trip failed")
	}
	if m.PWZ(0, id) > 1e-6 {
		t.Fatalf("PWZ(0, network) = %v", m.PWZ(0, id))
	}
	if err := m.Prior().Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: inferred γ is always a valid distribution for any random
// model and any keyword subset.
func TestQuickInferGammaSimplex(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		z := 2 + r.Intn(6)
		v := 3 + r.Intn(20)
		vocab := make([]string, v)
		for i := range vocab {
			vocab[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		pwz := make([][]float64, z)
		for zi := range pwz {
			row := make([]float64, v)
			for wi := range row {
				row[wi] = r.Float64()
			}
			pwz[zi] = row
		}
		m, err := NewModel(vocab, pwz, Dist(r.DirichletSym(1, z)))
		if err != nil {
			return false
		}
		nq := 1 + r.Intn(4)
		q := make([]string, nq)
		for i := range q {
			q[i] = vocab[r.Intn(v)]
		}
		g, _ := m.InferGamma(q)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a keyword strongly associated with topic z never
// decreases γ_z relative to the others (Bayes monotonicity in this
// separated-model setting).
func TestQuickSharpKeywordRaisesTopic(t *testing.T) {
	m, err := NewModel(
		[]string{"w0", "w1", "w2"},
		[][]float64{
			{0.9, 0.05, 0.05},
			{0.05, 0.9, 0.05},
			{0.05, 0.05, 0.9},
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 3; z++ {
		g, _ := m.InferGamma([]string{m.Keyword(z)})
		for o := 0; o < 3; o++ {
			if o != z && g[z] <= g[o] {
				t.Fatalf("keyword %d: γ=%v does not favor its topic", z, g)
			}
		}
	}
}

func BenchmarkInferGamma(b *testing.B) {
	vocab := make([]string, 1000)
	for i := range vocab {
		vocab[i] = "kw" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
	}
	r := rng.New(1)
	const z = 16
	pwz := make([][]float64, z)
	for zi := range pwz {
		row := make([]float64, len(vocab))
		for wi := range row {
			row[wi] = r.Float64()
		}
		pwz[zi] = row
	}
	m, err := NewModel(vocab, pwz, nil)
	if err != nil {
		b.Fatal(err)
	}
	query := []string{vocab[3], vocab[77], vocab[512]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := m.InferGamma(query)
		_ = g
	}
}
