package main

import (
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// The three scenarios of the paper; latencies are kept per kind, never
// pooled (a pooled median sits on the cliff between 0.5 ms paths and
// 50 ms IM).
const (
	kindIM = iota
	kindSuggest
	kindPaths
	numKinds
)

var kindNames = [numKinds]string{"im", "suggest", "paths"}

const suggestK = 3 // keywords asked of /api/suggest (the server's default)

// request is one read, generated by the harness from the seed — never
// by the server.
type request struct {
	kind int
	path string
	// The same parameters unrendered, for the traced run's in-process
	// calls below the HTTP layer.
	words []string // im
	k     int      // im
	user  string   // suggest, paths
	theta float64  // paths
}

type population struct {
	vocab     []string
	users     []string  // display names, by node id
	cumDegree []float64 // running sum of 1+out-degree
}

// user draws a node with probability proportional to 1+out-degree.
func (p *population) user(r *rand.Rand) string {
	x := r.Float64() * p.cumDegree[len(p.cumDegree)-1]
	return p.users[sort.SearchFloat64s(p.cumDegree, x)]
}

func (p *population) one(r *rand.Rand, kind int) request {
	switch kind {
	case kindIM:
		n := 1 + r.Intn(3)
		words := make([]string, 0, n)
		for _, i := range r.Perm(len(p.vocab))[:n] {
			words = append(words, p.vocab[i])
		}
		k := []int{5, 10, 20}[r.Intn(3)]
		return request{kind: kindIM, words: words, k: k,
			path: "/api/im?q=" + url.QueryEscape(strings.Join(words, " ")) + "&k=" + strconv.Itoa(k)}
	case kindSuggest:
		user := p.user(r)
		return request{kind: kindSuggest, user: user, k: suggestK,
			path: "/api/suggest?user=" + url.QueryEscape(user) + "&k=" + strconv.Itoa(suggestK)}
	default:
		user := p.user(r)
		theta := []float64{0.01, 0.02, 0.05}[r.Intn(3)]
		return request{kind: kindPaths, user: user, theta: theta,
			path: "/api/paths?user=" + url.QueryEscape(user) + "&theta=" + strconv.FormatFloat(theta, 'g', -1, 64)}
	}
}

// mixed returns n distinct requests, 50 % im / 25 % suggest / 25 %
// paths, in a seeded shuffle.
func (p *population) mixed(r *rand.Rand, n int) []request {
	kinds := make([]int, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%4 < 2:
			kinds = append(kinds, kindIM)
		case i%4 == 2:
			kinds = append(kinds, kindSuggest)
		default:
			kinds = append(kinds, kindPaths)
		}
	}
	r.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	seen := make(map[string]bool, n)
	out := make([]request, 0, n)
	for _, k := range kinds {
		q := p.one(r, k)
		for seen[q.path] {
			q = p.one(r, k)
		}
		seen[q.path] = true
		out = append(out, q)
	}
	return out
}

// zipfDraws picks n requests from the pool with Zipf(s=1.1) popularity
// over pool ranks: rank 0 is the hottest request.
func zipfDraws(r *rand.Rand, pool []request, n int) []request {
	z := rand.NewZipf(r, 1.1, 1, uint64(len(pool)-1))
	out := make([]request, n)
	for i := range out {
		out[i] = pool[z.Uint64()]
	}
	return out
}
