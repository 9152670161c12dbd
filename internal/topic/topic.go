// Package topic implements the keyword/topic layer of OCTOPUS
// (Section II-B of the paper): topic distributions on the simplex, a
// keyword model p(w|z) with topic priors p(z), Bayesian inference of the
// topic distribution γ captured by a keyword set, and the per-keyword
// topic profile displayed as a radar diagram in the demo UI.
package topic

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a probability distribution over topics (a point on the
// simplex). Most engine code passes Dists by value semantics; they are
// plain slices and must not be aliased across mutations.
type Dist []float64

// Uniform returns the uniform distribution over z topics.
func Uniform(z int) Dist {
	d := make(Dist, z)
	for i := range d {
		d[i] = 1 / float64(z)
	}
	return d
}

// Pure returns the point distribution concentrated on topic z.
func Pure(z, numTopics int) Dist {
	d := make(Dist, numTopics)
	d[z] = 1
	return d
}

// Normalize scales d to sum to 1 in place; all-zero input becomes
// uniform. It returns d for chaining.
func (d Dist) Normalize() Dist {
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if sum <= 0 {
		for i := range d {
			d[i] = 1 / float64(len(d))
		}
		return d
	}
	inv := 1 / sum
	for i := range d {
		d[i] *= inv
	}
	return d
}

// Validate returns an error unless d is a finite distribution summing to
// 1 within tolerance.
func (d Dist) Validate() error {
	if len(d) == 0 {
		return fmt.Errorf("topic: empty distribution")
	}
	sum := 0.0
	for i, v := range d {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("topic: component %d = %v invalid", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("topic: distribution sums to %v", sum)
	}
	return nil
}

// L1 returns the L1 distance between two distributions.
func (d Dist) L1(other Dist) float64 {
	s := 0.0
	for i := range d {
		s += math.Abs(d[i] - other[i])
	}
	return s
}

// Cosine returns the cosine similarity between two distributions.
func (d Dist) Cosine(other Dist) float64 {
	var dot, na, nb float64
	for i := range d {
		dot += d[i] * other[i]
		na += d[i] * d[i]
		nb += other[i] * other[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Top returns the k most probable topic indices in decreasing order.
func (d Dist) Top(k int) []int {
	idx := make([]int, len(d))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return d[idx[a]] > d[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// Clone returns an independent copy of d.
func (d Dist) Clone() Dist { return append(Dist(nil), d...) }

// Model is the keyword/topic model: a vocabulary with per-topic keyword
// distributions p(w|z) and topic priors p(z). Immutable after Build; all
// query methods are safe for concurrent use.
type Model struct {
	vocab   []string
	vocabID map[string]int
	z       int
	// pwz[z][w] = p(w|z); each row sums to 1.
	pwz [][]float64
	// prior[z] = p(z).
	prior Dist
	// topicNames are optional human-readable topic labels.
	topicNames []string
}

// NewModel constructs a Model from a vocabulary, per-topic keyword
// distributions (rows normalized internally with add-eps smoothing) and a
// prior (normalized internally; nil means uniform).
func NewModel(vocab []string, pwz [][]float64, prior Dist) (*Model, error) {
	z := len(pwz)
	if z == 0 {
		return nil, fmt.Errorf("topic: model needs at least one topic")
	}
	if len(vocab) == 0 {
		return nil, fmt.Errorf("topic: model needs a vocabulary")
	}
	for zi, row := range pwz {
		if len(row) != len(vocab) {
			return nil, fmt.Errorf("topic: p(w|z) row %d has %d entries, vocab has %d",
				zi, len(row), len(vocab))
		}
	}
	if prior == nil {
		prior = Uniform(z)
	}
	if len(prior) != z {
		return nil, fmt.Errorf("topic: prior has %d entries for %d topics", len(prior), z)
	}
	m := &Model{
		vocab:   append([]string(nil), vocab...),
		vocabID: make(map[string]int, len(vocab)),
		z:       z,
		pwz:     make([][]float64, z),
		prior:   prior.Clone().Normalize(),
	}
	for i, w := range m.vocab {
		if w == "" {
			return nil, fmt.Errorf("topic: empty keyword at vocab index %d", i)
		}
		if _, dup := m.vocabID[w]; dup {
			return nil, fmt.Errorf("topic: duplicate keyword %q", w)
		}
		m.vocabID[w] = i
	}
	const eps = 1e-9 // smoothing floor so log-space inference never hits -Inf
	for zi, row := range pwz {
		r := make([]float64, len(row))
		sum := 0.0
		for wi, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("topic: p(w|z) entry [%d][%d] = %v invalid", zi, wi, v)
			}
			r[wi] = v + eps
			sum += r[wi]
		}
		inv := 1 / sum
		for wi := range r {
			r[wi] *= inv
		}
		m.pwz[zi] = r
	}
	return m, nil
}

// SetTopicNames attaches optional display labels for topics.
func (m *Model) SetTopicNames(names []string) error {
	if len(names) != m.z {
		return fmt.Errorf("topic: %d names for %d topics", len(names), m.z)
	}
	m.topicNames = append([]string(nil), names...)
	return nil
}

// TopicName returns the display label of topic z (a generated label if
// none was set).
func (m *Model) TopicName(z int) string {
	if m.topicNames != nil {
		return m.topicNames[z]
	}
	return fmt.Sprintf("topic-%d", z)
}

// NumTopics returns Z.
func (m *Model) NumTopics() int { return m.z }

// VocabSize returns |W|.
func (m *Model) VocabSize() int { return len(m.vocab) }

// Vocab returns the vocabulary; callers must not modify it.
func (m *Model) Vocab() []string { return m.vocab }

// KeywordID resolves a keyword to its vocabulary index.
func (m *Model) KeywordID(w string) (int, bool) {
	id, ok := m.vocabID[w]
	return id, ok
}

// Keyword returns the keyword at vocabulary index i.
func (m *Model) Keyword(i int) string { return m.vocab[i] }

// PWZ returns p(w|z) for vocabulary index w under topic z.
func (m *Model) PWZ(z, w int) float64 { return m.pwz[z][w] }

// Prior returns p(z); callers must not modify the returned slice.
func (m *Model) Prior() Dist { return m.prior }

// InferGamma derives the topic distribution captured by a keyword set via
// the Bayesian formula of [6]: γ_z ∝ p(z)·Π_{w∈W} p(w|z), computed in log
// space. Unknown keywords are ignored; the second return lists them. If
// no known keyword remains, the prior is returned.
func (m *Model) InferGamma(keywords []string) (Dist, []string) {
	logG := make([]float64, m.z)
	for z := range logG {
		logG[z] = math.Log(m.prior[z])
	}
	var unknown []string
	used := 0
	for _, w := range keywords {
		id, ok := m.vocabID[w]
		if !ok {
			unknown = append(unknown, w)
			continue
		}
		used++
		for z := 0; z < m.z; z++ {
			logG[z] += math.Log(m.pwz[z][id])
		}
	}
	if used == 0 {
		return m.prior.Clone(), unknown
	}
	// Softmax with max-subtraction for numerical stability.
	maxv := math.Inf(-1)
	for _, v := range logG {
		if v > maxv {
			maxv = v
		}
	}
	g := make(Dist, m.z)
	for z, v := range logG {
		g[z] = math.Exp(v - maxv)
	}
	return g.Normalize(), unknown
}

// Radar returns p(z|w) for one keyword — the topic profile rendered as a
// radar diagram in the OCTOPUS UI (Scenario 2). ok is false for unknown
// keywords.
func (m *Model) Radar(keyword string) (Dist, bool) {
	id, ok := m.vocabID[keyword]
	if !ok {
		return nil, false
	}
	g := make(Dist, m.z)
	for z := 0; z < m.z; z++ {
		g[z] = m.pwz[z][id] * m.prior[z]
	}
	return g.Normalize(), true
}

// KeywordCoherence returns the cosine similarity of the topic profiles of
// two keywords — used by the suggestion engine to keep suggested keyword
// sets topically consistent.
func (m *Model) KeywordCoherence(w1, w2 string) (float64, bool) {
	a, ok1 := m.Radar(w1)
	b, ok2 := m.Radar(w2)
	if !ok1 || !ok2 {
		return 0, false
	}
	return a.Cosine(b), true
}
