package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"

	"octopus/internal/core"
	"octopus/internal/datagen"
)

// FuzzQParams throws arbitrary raw query strings at the typed parameter
// reader. The contract: no panic; bad() fires exactly when a present
// value fails to parse or is a non-finite number (with a 400 naming the
// parameter); and when nothing is malformed, every returned value either
// equals the default or round-trips through strconv.
func FuzzQParams(f *testing.F) {
	f.Add("k=10&theta=0.5&q=data+mining")
	f.Add("k=ten")
	f.Add("theta=0..5&limit=many")
	f.Add("k=&theta=")
	f.Add("%gh&;=&k=1e9")
	f.Add("k=10&k=11")
	f.Add("highlight=-1&max=0")
	f.Add("theta=NaN&coherence=-Inf")

	f.Fuzz(func(t *testing.T, rawQuery string) {
		r := &http.Request{URL: &url.URL{RawQuery: rawQuery}}
		q := params(r)
		k := q.Int("k", 7)
		theta := q.Float("theta", 0.5)
		limit := q.Int("limit", 3)
		coh := q.Float("coherence", 0)

		rec := httptest.NewRecorder()
		bad := q.bad(rec)
		if bad != (q.err != nil) {
			t.Fatalf("bad() = %v but err = %v", bad, q.err)
		}
		if bad {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("bad() wrote status %d, want 400", rec.Code)
			}
			return
		}
		// Well-formed: every value is the default or parses cleanly to the
		// returned number.
		vals := r.URL.Query()
		checkInt := func(name string, got, def int) {
			v := vals.Get(name)
			if v == "" {
				if got != def {
					t.Fatalf("%s absent but = %d (default %d)", name, got, def)
				}
				return
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s=%q unparseable yet not flagged", name, v)
			}
			if got != n {
				t.Fatalf("%s = %d, want %d", name, got, n)
			}
		}
		checkFloat := func(name string, got, def float64) {
			v := vals.Get(name)
			if v == "" {
				if got != def {
					t.Fatalf("%s absent but = %v (default %v)", name, got, def)
				}
				return
			}
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s=%q unparseable or not finite, yet not flagged", name, v)
			}
			if got != x {
				t.Fatalf("%s = %v, want %v", name, got, x)
			}
		}
		checkInt("k", k, 7)
		checkInt("limit", limit, 3)
		checkFloat("theta", theta, 0.5)
		checkFloat("coherence", coh, 0)
	})
}

var (
	fuzzSysOnce sync.Once
	fuzzSys     *core.System
	fuzzSysErr  error
)

func fuzzSystem(t testing.TB) *core.System {
	fuzzSysOnce.Do(func() {
		ds, err := datagen.Citation(datagen.CitationConfig{Authors: 40, Topics: 2, Papers: 60, Seed: 5})
		if err != nil {
			fuzzSysErr = err
			return
		}
		fuzzSys, fuzzSysErr = core.Build(ds.Graph, ds.Log, core.Config{
			GroundTruth:      ds.Truth,
			GroundTruthWords: ds.TruthWords,
			Seed:             5,
		})
	})
	if fuzzSysErr != nil {
		t.Fatal(fuzzSysErr)
	}
	return fuzzSys
}

// FuzzCacheKey: key construction over arbitrary query strings must
// never panic and must be deterministic, requests with different
// endpoint names must never share a key, and over the request and its
// variants (keyVariants) two requests share a key iff they share the
// reference key.
func FuzzCacheKey(f *testing.F) {
	f.Add("q=data+mining&k=5&theta=0.01")
	f.Add("q=&k=")
	f.Add("user=Alice+B&limit=2")
	f.Add("keyword=++mining++")
	f.Add("a=1&a=2&b=%ff")
	f.Add("q=%00%01&%01=%00&explain=1")

	f.Fuzz(func(t *testing.T, rawQuery string) {
		sys := fuzzSystem(t)
		gk := refGammaKey(sys)
		vals, _ := url.ParseQuery(rawQuery)
		k1 := appendCacheKey(nil, "im", vals)
		if k2 := appendCacheKey([]byte("scratch"), "im", vals); string(k2[len("scratch"):]) != string(k1) {
			t.Fatalf("appendCacheKey not deterministic: %q vs %q", k1, k2)
		}
		if other := appendCacheKey(nil, "paths", vals); string(other) == string(k1) {
			t.Fatalf("im and paths share a cache key: %q", k1)
		}
		var keys, refs []string
		var reqs []keyRequest
		for _, ep := range []string{"im", "paths", "radar", "suggest"} {
			for _, k := range keyVariants(keyRequest{ep, rawQuery}) {
				v, _ := url.ParseQuery(k.rawQuery)
				reqs = append(reqs, k)
				keys = append(keys, string(appendCacheKey(nil, k.endpoint, v)))
				refs = append(refs, refCacheKey(k.endpoint, gk, v))
			}
		}
		for i := range keys {
			for j := i + 1; j < len(keys); j++ {
				if (keys[i] == keys[j]) != (refs[i] == refs[j]) {
					t.Fatalf("%s and %s: keys equal = %v, reference keys equal = %v",
						reqs[i].path(), reqs[j].path(), keys[i] == keys[j], refs[i] == refs[j])
				}
			}
		}
	})
}
