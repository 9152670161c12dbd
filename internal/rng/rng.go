// Package rng provides small, fast, deterministic random number generators
// and distribution samplers used throughout the OCTOPUS reproduction.
//
// Every randomized component of the system (cascade simulation, RR-set
// sampling, data generation, topic sampling) takes an explicit *rng.Source
// so that experiments are reproducible bit-for-bit given a seed. The
// generator is xoshiro256++ seeded via splitmix64, the combination
// recommended by the xoshiro authors.
package rng

import "math"

// Source is a deterministic pseudo-random number generator implementing
// xoshiro256++. The zero value is not usable; construct with New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed using splitmix64 to fill the
// internal state, guaranteeing a non-zero state for any seed.
func New(seed uint64) *Source {
	r := &Source{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state deterministically from seed.
func (r *Source) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	if r.s0|r.s1|r.s2|r.s3 == 0 { // impossible with splitmix64, but be safe
		r.s3 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split returns a new Source whose stream is independent of r's future
// output, suitable for handing to a worker goroutine.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
}

// Float64 returns a uniform float64 in [0,1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint32n returns a uniform uint32 in [0,n) using Lemire's multiply-shift
// reduction, which avoids the modulo. It panics if n == 0.
func (r *Source) Uint32n(n uint32) uint32 {
	if n == 0 {
		panic("rng: Uint32n with zero n")
	}
	return uint32((uint64(uint32(r.Uint64())) * uint64(n)) >> 32)
}

// Bool returns a fair coin flip.
func (r *Source) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a random permutation of [0,n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate (Box–Muller, polar form).
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Gamma samples from a Gamma(shape, 1) distribution using the
// Marsaglia–Tsang method, with the standard boost for shape < 1.
func (r *Source) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	if shape < 1 {
		// boost: Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet samples a point on the (len(alpha)-1)-simplex with the given
// concentration parameters, writing the result into out (allocated if nil).
func (r *Source) Dirichlet(alpha []float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(alpha))
	}
	if len(out) != len(alpha) {
		panic("rng: Dirichlet output length mismatch")
	}
	sum := 0.0
	for i, a := range alpha {
		g := r.Gamma(a)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw (all-zero gammas can occur for tiny alphas due to
		// underflow); fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// DirichletSym samples from a symmetric Dirichlet with concentration a.
func (r *Source) DirichletSym(a float64, k int) []float64 {
	alpha := make([]float64, k)
	for i := range alpha {
		alpha[i] = a
	}
	return r.Dirichlet(alpha, nil)
}

// Sample returns k distinct uniform indices from [0,n) (k<=n) using a
// partial Fisher–Yates over a temporary index slice.
func (r *Source) Sample(n, k int) []int {
	if k > n {
		panic("rng: Sample k > n")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// WeightedChoice returns an index in [0,len(w)) with probability
// proportional to w[i]. Weights must be non-negative with positive sum.
func (r *Source) WeightedChoice(w []float64) int {
	total := 0.0
	for _, x := range w {
		total += x
	}
	if total <= 0 {
		panic("rng: WeightedChoice with non-positive total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}
