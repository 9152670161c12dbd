package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) produced only %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint32n(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		if v := r.Uint32n(17); v >= 17 {
			t.Fatalf("Uint32n(17) = %d", v)
		}
	}
}

func TestPerm(t *testing.T) {
	r := New(5)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(6)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	seen := make([]bool, 8)
	for _, v := range s {
		if seen[v] {
			t.Fatalf("Shuffle duplicated element: %v", s)
		}
		seen[v] = true
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestGammaMean(t *testing.T) {
	r := New(19)
	for _, shape := range []float64{0.5, 1, 2.5, 10} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.Gamma(shape)
		}
		mean := sum / n
		if math.Abs(mean-shape)/shape > 0.05 {
			t.Fatalf("Gamma(%v) mean = %v, want ~%v", shape, mean, shape)
		}
	}
}

func TestDirichletSimplex(t *testing.T) {
	r := New(23)
	f := func(seed uint64) bool {
		rr := New(seed)
		k := 2 + rr.Intn(10)
		a := 0.1 + rr.Float64()*5
		d := r.DirichletSym(a, k)
		sum := 0.0
		for _, v := range d {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletMean(t *testing.T) {
	r := New(29)
	alpha := []float64{2, 1, 1}
	const n = 50000
	acc := make([]float64, 3)
	out := make([]float64, 3)
	for i := 0; i < n; i++ {
		r.Dirichlet(alpha, out)
		for j, v := range out {
			acc[j] += v
		}
	}
	want := []float64{0.5, 0.25, 0.25}
	for j := range acc {
		if got := acc[j] / n; math.Abs(got-want[j]) > 0.01 {
			t.Fatalf("Dirichlet mean[%d] = %v, want ~%v", j, got, want[j])
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(37)
	s := r.Sample(50, 10)
	if len(s) != 10 {
		t.Fatalf("Sample returned %d items", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Sample invalid: %v", s)
		}
		seen[v] = true
	}
}

func TestWeightedChoice(t *testing.T) {
	r := New(41)
	w := []float64{0, 1, 3, 0}
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[r.WeightedChoice(w)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight entries drawn: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(43)
	c := r.Split()
	// The child stream should not simply mirror the parent.
	same := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream mirrors parent (%d/64 equal)", same)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}
