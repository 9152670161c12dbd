package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"octopus/internal/actionlog"
	"octopus/internal/core"
)

// refCacheKey is the cache key as it was built before the key dropped
// γ and moved into a reused buffer: escaped "&name=value" pairs of the
// first values, names sorted, plus for im the exact hex rendering of
// the inferred γ. It is the oracle appendCacheKey must agree with:
// two requests share a key iff they share a reference key.
func refCacheKey(endpoint string, gammaKey func(words []string) string, q url.Values) string {
	var b strings.Builder
	b.WriteString(endpoint)
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names)
	tok := actionlog.Tokenizer{}
	var queryWords []string
	for _, name := range names {
		v := q.Get(name)
		if v == "" {
			continue
		}
		switch {
		case name == "explain":
			if v != "1" {
				continue
			}
		case name == "q" && (endpoint == "im" || endpoint == "paths"):
			words := tok.Tokenize(v)
			v = strings.Join(words, " ")
			if endpoint == "im" {
				queryWords = words
			}
		case name == "keyword" && endpoint == "radar":
			v = strings.TrimSpace(v)
		}
		b.WriteByte('&')
		b.WriteString(url.QueryEscape(name))
		b.WriteByte('=')
		b.WriteString(url.QueryEscape(v))
	}
	if len(queryWords) > 0 {
		if gk := gammaKey(queryWords); gk != "" {
			b.WriteString("|g=")
			b.WriteString(gk)
		}
	}
	return b.String()
}

// refGammaKey is the γ component the reference key appended for a
// local view: the inferred distribution, rendered exactly.
func refGammaKey(sys *core.System) func(words []string) string {
	return func(words []string) string {
		gamma, _ := sys.InferGamma(words)
		var b strings.Builder
		for _, g := range gamma {
			b.WriteString(strconv.FormatFloat(g, 'x', -1, 64))
			b.WriteByte(',')
		}
		return b.String()
	}
}

// keyRequest is one cached read: its endpoint and raw query.
type keyRequest struct{ endpoint, rawQuery string }

func (k keyRequest) path() string { return "/api/" + k.endpoint + "?" + k.rawQuery }

// keyVariants derives the shapes of one request the key must see
// through or tell apart: parameters permuted, duplicated (first value
// wins), a value smuggling the next parameter in behind NUL bytes, an
// unknown word and a reworded q, a padded or upper-cased keyword,
// explain=0/1, and an extra parameter, empty or not.
func keyVariants(k keyRequest) []keyRequest {
	pairs := strings.Split(k.rawQuery, "&")
	rev := make([]string, len(pairs))
	for i, p := range pairs {
		rev[len(pairs)-1-i] = p
	}
	raw := func(q string) keyRequest { return keyRequest{k.endpoint, strings.TrimPrefix(q, "&")} }
	out := []keyRequest{
		k,
		raw(strings.Join(rev, "&")),
		raw(k.rawQuery + "&" + k.rawQuery),
		raw(k.rawQuery + "&explain=0"),
		raw("explain=1&" + k.rawQuery),
		raw(k.rawQuery + "&extra=1"),
		raw(k.rawQuery + "&extra="),
		raw(k.rawQuery + "&k=7"),
		raw("k=7&" + k.rawQuery),
	}
	if len(pairs) > 1 {
		// The first parameter by name smuggling the second in behind NUL
		// bytes: "a=b%00c%00d" must not key like "a=b&c=d".
		sorted := slices.Clone(pairs)
		slices.Sort(sorted)
		name, value, _ := strings.Cut(sorted[1], "=")
		out = append(out, raw(strings.Join(append([]string{sorted[0] + "%00" + name + "%00" + value}, sorted[2:]...), "&")))
	}
	vals, _ := url.ParseQuery(k.rawQuery)
	reword := func(name string, values ...string) {
		for _, nv := range values {
			v2, _ := url.ParseQuery(k.rawQuery)
			v2.Set(name, nv)
			out = append(out, raw(v2.Encode()))
		}
	}
	if q := vals.Get("q"); q != "" {
		reword("q", q+" zzqxunknownword", strings.ToUpper(q)+"!! the", "the "+q+" "+q)
	}
	if kw := vals.Get("keyword"); kw != "" {
		reword("keyword", " "+kw+"  ", strings.ToUpper(kw))
	}
	return out
}

// cachedKeyRequests lists the conformance suite's GET requests to the
// cached read endpoints.
func cachedKeyRequests(t *testing.T, sys *core.System) []keyRequest {
	t.Helper()
	var out []keyRequest
	for _, tc := range conformanceCases() {
		if tc.method != http.MethodGet {
			continue
		}
		u, err := url.Parse(tc.path(sys))
		if err != nil {
			t.Fatal(err)
		}
		switch ep := strings.TrimPrefix(u.Path, "/api/"); ep {
		case "im", "suggest", "keywords", "radar", "paths", "complete":
			out = append(out, keyRequest{ep, u.RawQuery})
		}
	}
	return out
}

// keyed reports whether a request reaches the cache key at all: one
// with a malformed explain flag is a 400 before the lookup.
func keyed(q url.Values) bool {
	switch q.Get("explain") {
	case "", "0", "1":
		return true
	}
	return false
}

// TestCacheKeyEquivalence: over the conformance requests and their
// variants, two requests share a key iff they share a reference key,
// and keyed requests with equal keys get byte-identical uncached
// responses.
func TestCacheKeyEquivalence(t *testing.T) {
	_, sys := testServer(t)
	uncached := NewWith(sys, Options{CacheEntries: -1, TraceRing: -1})
	gk := refGammaKey(sys)
	var reqs []keyRequest
	for _, k := range cachedKeyRequests(t, sys) {
		reqs = append(reqs, keyVariants(k)...)
	}
	keys := make([]string, len(reqs))
	refs := make([]string, len(reqs))
	for i, k := range reqs {
		vals, _ := url.ParseQuery(k.rawQuery)
		keys[i] = string(appendCacheKey(nil, k.endpoint, vals))
		refs[i] = refCacheKey(k.endpoint, gk, vals)
	}
	for i := range reqs {
		for j := i + 1; j < len(reqs); j++ {
			if (keys[i] == keys[j]) != (refs[i] == refs[j]) {
				t.Fatalf("%s and %s: keys equal = %v, reference keys equal = %v",
					reqs[i].path(), reqs[j].path(), keys[i] == keys[j], refs[i] == refs[j])
			}
		}
	}
	type answer struct {
		path   string
		status int
		body   []byte
	}
	byKey := map[string]answer{}
	shared := 0
	for i, k := range reqs {
		if vals, _ := url.ParseQuery(k.rawQuery); !keyed(vals) {
			continue
		}
		rec := httptest.NewRecorder()
		uncached.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, k.path(), nil))
		got := answer{k.path(), rec.Code, rec.Body.Bytes()}
		prev, ok := byKey[keys[i]]
		if !ok {
			byKey[keys[i]] = got
			continue
		}
		shared++
		if prev.status != got.status || !bytes.Equal(prev.body, got.body) {
			t.Fatalf("%s and %s share a key but answer differently:\n%d %s\n%d %s",
				prev.path, got.path, prev.status, prev.body, got.status, got.body)
		}
	}
	if shared == 0 || len(byKey) < len(reqs)/3 {
		t.Fatalf("degenerate sweep: %d requests, %d distinct keys, %d shared", len(reqs), len(byKey), shared)
	}
}
