package actionlog

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"octopus/internal/rng"
)

func sampleLog() *Log {
	items := []Item{
		{ID: 0, Keywords: []string{"data", "mining"}},
		{ID: 1, Keywords: []string{"social", "network"}},
	}
	actions := []Action{
		{User: 2, Item: 0, Time: 5},
		{User: 0, Item: 0, Time: 1},
		{User: 1, Item: 0, Time: 3},
		{User: 0, Item: 1, Time: 2},
		{User: 3, Item: 1, Time: 2}, // tie broken by user id
	}
	return Build(4, items, actions)
}

func TestBuildOrdersActions(t *testing.T) {
	l := sampleLog()
	if len(l.Episodes) != 2 {
		t.Fatalf("episodes = %d", len(l.Episodes))
	}
	ep := l.Episodes[0]
	var users []NodeID
	for _, a := range ep.Actions {
		users = append(users, a.User)
	}
	if !reflect.DeepEqual(users, []NodeID{0, 1, 2}) {
		t.Fatalf("episode 0 order = %v", users)
	}
	ep1 := l.Episodes[1]
	if ep1.Actions[0].User != 0 || ep1.Actions[1].User != 3 {
		t.Fatalf("tie-break order = %v", ep1.Actions)
	}
}

func TestBuildDropsUnknownItemsAndDups(t *testing.T) {
	items := []Item{{ID: 7, Keywords: []string{"x"}}}
	actions := []Action{
		{User: 0, Item: 7, Time: 9},
		{User: 0, Item: 7, Time: 4}, // duplicate user+item keeps earliest
		{User: 1, Item: 99, Time: 1},
	}
	l := Build(2, items, actions)
	if got := l.NumActions(); got != 1 {
		t.Fatalf("actions = %d, want 1", got)
	}
	if l.Episodes[0].Actions[0].Time != 4 {
		t.Fatalf("kept time %d, want earliest 4", l.Episodes[0].Actions[0].Time)
	}
}

func TestBuildDropsOutOfRangeUsers(t *testing.T) {
	items := []Item{{ID: 0, Keywords: []string{"x"}}}
	actions := []Action{
		{User: 0, Item: 0, Time: 1},
		{User: 99, Item: 0, Time: 2}, // beyond numUsers
		{User: -1, Item: 0, Time: 3}, // negative
	}
	l := Build(2, items, actions)
	if got := l.NumActions(); got != 1 {
		t.Fatalf("actions = %d, want 1 (out-of-range users dropped)", got)
	}
}

func TestUserItems(t *testing.T) {
	l := sampleLog()
	off, eps := l.UserItems()
	// user 0: episodes 0, 1; user 1: 0; user 2: 0; user 3: 1.
	if !reflect.DeepEqual(off, []int32{0, 2, 3, 4, 5}) || !reflect.DeepEqual(eps, []int32{0, 1, 0, 0, 1}) {
		t.Fatalf("UserItems = %v, %v", off, eps)
	}
}

func TestRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	l2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if l2.NumUsers != l.NumUsers || len(l2.Episodes) != len(l.Episodes) {
		t.Fatalf("round trip shape: %d/%d", l2.NumUsers, len(l2.Episodes))
	}
	if l2.NumActions() != l.NumActions() {
		t.Fatalf("round trip actions: %d vs %d", l2.NumActions(), l.NumActions())
	}
	if !reflect.DeepEqual(l2.Episodes[0].Item.Keywords, []string{"data", "mining"}) {
		t.Fatalf("keywords lost: %v", l2.Episodes[0].Item.Keywords)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"a 0 1 2",          // action before header is fine structurally but no header at all
		"log x",            // bad count
		"log 2\ni",         // malformed item
		"log 2\na 0 1",     // malformed action
		"log 2\nz 1 2",     // unknown record
		"log 2\na 0 -1 3",  // negative user
		"log 2\ni abc x,y", // bad item id
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("Read(%q) succeeded", c)
		}
	}
}

func TestReadItemWithoutKeywords(t *testing.T) {
	l, err := Read(strings.NewReader("log 1\ni 5\na 5 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Episodes) != 1 || len(l.Episodes[0].Item.Keywords) != 0 {
		t.Fatalf("episodes = %+v", l.Episodes)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nUsers := 1 + r.Intn(20)
		nItems := 1 + r.Intn(10)
		items := make([]Item, nItems)
		for i := range items {
			items[i] = Item{ID: int32(i), Keywords: []string{"k" + string(rune('a'+i%26))}}
		}
		var actions []Action
		for i := 0; i < 50; i++ {
			actions = append(actions, Action{
				User: NodeID(r.Intn(nUsers)),
				Item: int32(r.Intn(nItems)),
				Time: int64(r.Intn(100)),
			})
		}
		l := Build(nUsers, items, actions)
		var buf bytes.Buffer
		if Write(&buf, l) != nil {
			return false
		}
		l2, err := Read(&buf)
		if err != nil {
			return false
		}
		return l2.NumActions() == l.NumActions() && l2.NumUsers == l.NumUsers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenizer(t *testing.T) {
	tok := Tokenizer{}
	got := tok.Tokenize("Mining of Massive Datasets: a New Approach to Data Mining!")
	want := []string{"mining", "massive", "datasets", "data"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizerMinLen(t *testing.T) {
	tok := Tokenizer{MinLen: 5}
	got := tok.Tokenize("deep graph neural networks")
	if !reflect.DeepEqual(got, []string{"graph", "neural", "networks"}) {
		t.Fatalf("Tokenize = %v", got)
	}
}

func TestTokenizerCustomStopwords(t *testing.T) {
	tok := Tokenizer{Stopwords: map[string]bool{"graph": true}}
	got := tok.Tokenize("graph mining")
	if !reflect.DeepEqual(got, []string{"mining"}) {
		t.Fatalf("Tokenize = %v", got)
	}
}

func TestTokenizerUnicodeAndDigits(t *testing.T) {
	tok := Tokenizer{}
	got := tok.Tokenize("Web2.0 Systèmes — distributed123 systems")
	// "web2" (4 chars), "systèmes" splits at è producing "syst"+"mes";
	// both pass min length 3.
	if len(got) == 0 {
		t.Fatal("Tokenize dropped everything")
	}
	for _, w := range got {
		if strings.ToLower(w) != w {
			t.Fatalf("non-lowercase token %q", w)
		}
	}
}

func TestTokenizerEmpty(t *testing.T) {
	tok := Tokenizer{}
	if got := tok.Tokenize("  !!! "); len(got) != 0 {
		t.Fatalf("Tokenize(junk) = %v", got)
	}
}

// refTokenize is the rune-by-rune tokenizer AppendTokens replaced:
// the oracle it must agree with.
func refTokenize(t Tokenizer, text string) []string {
	minLen, stop := t.config()
	var out []string
	seen := map[string]bool{}
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		w := b.String()
		b.Reset()
		if len(w) < minLen || stop[w] || seen[w] {
			return
		}
		seen[w] = true
		out = append(out, w)
	}
	for _, r := range strings.ToLower(text) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// FuzzAppendTokens: AppendTokens writes exactly the space-joined
// reference tokens after whatever dst already held, and Tokenize
// returns them, for the default and a configured tokenizer.
func FuzzAppendTokens(f *testing.F) {
	long := strings.Repeat("alpha beta gamma delta epsilon zeta theta iota kappa lambda ", 3) +
		"mu nu xi omicron pi rho sigma tau upsilon phi chi psi omega alpha beta0 beta1 beta2"
	for _, s := range []string{
		"Mining of Massive Datasets: a New Approach to Data Mining!",
		"data+mining mining DATA", "the of and", "", "  !!! ",
		"Web2.0 Systèmes — distributed123 systems", "\u212aelvin kelvin",
		"graph graph GRAPH Graph", "ab abc abcd", long, "\xff\xfeab\xc3cde",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, tok := range []Tokenizer{{}, {MinLen: 5, Stopwords: map[string]bool{"graph": true}}} {
			ref := refTokenize(tok, text)
			want := "prefix|" + strings.Join(ref, " ")
			if got := string(tok.AppendTokens([]byte("prefix|"), text)); got != want {
				t.Fatalf("AppendTokens(%q) = %q, want %q", text, got, want)
			}
			if got := tok.Tokenize(text); !reflect.DeepEqual(got, ref) {
				t.Fatalf("Tokenize(%q) = %q, want %q", text, got, ref)
			}
		}
	})
}

// TestAppendTokensLinear: a long text of distinct words deduplicates
// through the set, not a quadratic scan, and still matches the
// reference.
func TestAppendTokensLinear(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200000; i++ {
		fmt.Fprintf(&b, "w%d ", i%150000)
	}
	text := b.String()
	start := time.Now()
	got := Tokenizer{}.Tokenize(text)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("tokenizing %d bytes took %v", len(text), d)
	}
	if !reflect.DeepEqual(got, refTokenize(Tokenizer{}, text)) {
		t.Fatal("long-text tokens differ from the reference")
	}
}

func TestAppendTokensAllocs(t *testing.T) {
	tok := Tokenizer{}
	buf := make([]byte, 0, 128)
	text := "Online Topic-Aware Influence Maximization for Online Networks"
	if allocs := testing.AllocsPerRun(100, func() { buf = tok.AppendTokens(buf[:0], text) }); allocs != 0 {
		t.Fatalf("AppendTokens allocates %.1f objects on ASCII text, want 0", allocs)
	}
	if got := string(buf); got != "online topic aware influence maximization networks" {
		t.Fatalf("AppendTokens = %q", got)
	}
}

func BenchmarkTokenize(b *testing.B) {
	tok := Tokenizer{}
	text := "Online Topic-Aware Influence Maximization for Social Networks at Scale"
	for i := 0; i < b.N; i++ {
		tok.Tokenize(text)
	}
}

func BenchmarkBuild(b *testing.B) {
	r := rng.New(3)
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{ID: int32(i), Keywords: []string{"kw"}}
	}
	actions := make([]Action, 10000)
	for i := range actions {
		actions[i] = Action{User: NodeID(r.Intn(1000)), Item: int32(r.Intn(100)), Time: int64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(1000, items, actions)
	}
}

// Merge must produce exactly what Build over the concatenated inputs
// produces, for every wrinkle Build's global maps handle: duplicate
// (user,item) actions where the earlier time wins (in either
// direction), invalid users, unknown items, new items with and without
// actions, and empty deltas.
func TestMergeMatchesBuild(t *testing.T) {
	r := rng.New(9)
	baseItems := make([]Item, 40)
	for i := range baseItems {
		baseItems[i] = Item{ID: int32(i * 3), Keywords: []string{"kw"}}
	}
	var baseActs []Action
	for i := 0; i < 600; i++ {
		baseActs = append(baseActs, Action{
			User: NodeID(r.Intn(100)), Item: int32(3 * r.Intn(40)), Time: int64(10 + r.Intn(50)),
		})
	}
	base := Build(100, baseItems, baseActs)

	newItems := []Item{{ID: 500, Keywords: []string{"fresh"}}, {ID: 501}}
	var newActs []Action
	for i := 0; i < 200; i++ {
		newActs = append(newActs, Action{
			User: NodeID(r.Intn(110) - 5), // some invalid users
			Item: int32(3 * r.Intn(45)),   // some unknown items
			Time: int64(r.Intn(100)),      // some earlier than stored
		})
	}
	newActs = append(newActs,
		Action{User: 3, Item: 500, Time: 7},
		Action{User: 3, Item: 500, Time: 2}, // duplicate within the delta: earliest wins
		Action{User: 4, Item: 501, Time: 1},
	)

	got := Merge(base, 100, newItems, newActs)
	want := Build(100, append(base.Items(), newItems...), append(base.Actions(), newActs...))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Merge diverges from Build:\nwant %+v\ngot  %+v", want, got)
	}

	// Empty delta: the merged log IS the base.
	if Merge(base, 100, nil, nil) != base {
		t.Fatal("empty-delta Merge must return the base log")
	}
	// User-universe growth forces re-validation but stays equivalent.
	grown := Merge(base, 130, newItems, newActs)
	wantGrown := Build(130, append(base.Items(), newItems...), append(base.Actions(), newActs...))
	if !reflect.DeepEqual(wantGrown, grown) {
		t.Fatal("Merge diverges from Build under user growth")
	}
	// Duplicate item ids fall back to Build semantics.
	dup := Merge(base, 100, []Item{{ID: 0}}, nil)
	wantDup := Build(100, append(base.Items(), Item{ID: 0}), base.Actions())
	if !reflect.DeepEqual(wantDup, dup) {
		t.Fatal("duplicate-item Merge diverges from Build")
	}
}

// refBuild is the map-based grouping Build is checked against: dedup
// each (user, item id) to its earliest time through a map, hand the
// survivors to the last episode holding that id, and sort every
// episode by (time, user).
func refBuild(numUsers int, items []Item, actions []Action) *Log {
	byItem := make(map[int32]*Episode, len(items))
	ordered := make([]*Episode, 0, len(items))
	for _, it := range items {
		ep := &Episode{Item: it}
		byItem[it.ID] = ep
		ordered = append(ordered, ep)
	}
	type key struct {
		u NodeID
		i int32
	}
	seen := make(map[key]int64)
	for _, a := range actions {
		if a.User < 0 || int(a.User) >= numUsers {
			continue
		}
		if _, ok := byItem[a.Item]; !ok {
			continue
		}
		k := key{a.User, a.Item}
		if t, dup := seen[k]; dup && t <= a.Time {
			continue
		}
		seen[k] = a.Time
	}
	for k, t := range seen {
		ep := byItem[k.i]
		ep.Actions = append(ep.Actions, Action{User: k.u, Item: k.i, Time: t})
	}
	log := &Log{NumUsers: numUsers}
	for _, ep := range ordered {
		sort.Slice(ep.Actions, func(i, j int) bool {
			if ep.Actions[i].Time != ep.Actions[j].Time {
				return ep.Actions[i].Time < ep.Actions[j].Time
			}
			return ep.Actions[i].User < ep.Actions[j].User
		})
		log.Episodes = append(log.Episodes, *ep)
	}
	return log
}

// randomLog draws items whose ids repeat, and actions with users out of
// range, unknown item ids, and repeated (user, item) pairs at equal and
// unequal times.
func randomLog(r *rng.Source, numUsers int) ([]Item, []Action) {
	items := make([]Item, r.Intn(12))
	for i := range items {
		items[i] = Item{ID: int32(r.Intn(16) - 2), Keywords: []string{fmt.Sprint("kw", i)}}
	}
	acts := make([]Action, r.Intn(80))
	for i := range acts {
		acts[i] = Action{
			User: NodeID(r.Intn(numUsers+6) - 3),
			Item: int32(r.Intn(20) - 3),
			Time: int64(r.Intn(6)),
		}
	}
	return items, acts
}

// checkIsolated appends to every episode's Actions in turn and fails if
// that changes any other episode.
func checkIsolated(t *testing.T, l *Log) {
	t.Helper()
	before := make([][]Action, len(l.Episodes))
	for i, ep := range l.Episodes {
		before[i] = slices.Clone(ep.Actions)
	}
	for i, ep := range l.Episodes {
		_ = append(ep.Actions, Action{User: -7, Item: -7, Time: -7})
		for j, other := range l.Episodes {
			if j != i && !slices.Equal(other.Actions, before[j]) {
				t.Fatalf("appending to episode %d changed episode %d", i, j)
			}
		}
	}
}

// Build and Merge must produce exactly what the map-based reference
// does, empty episodes' nil Actions included, on random logs that hit
// every rule: last-id-wins duplicates, out-of-range users, unknown
// items, and earliest-time dedup.
func TestBuildMergeMatchReference(t *testing.T) {
	r := rng.New(11)
	for round := 0; round < 2000; round++ {
		numUsers := 1 + r.Intn(12)
		items, acts := randomLog(r, numUsers)
		got := Build(numUsers, items, acts)
		if want := refBuild(numUsers, items, acts); !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: Build diverges\nitems %v\nacts %v\nwant %+v\ngot  %+v", round, items, acts, want, got)
		}
		checkIsolated(t, got)

		grown := numUsers + r.Intn(5) - 1
		newItems, newActs := randomLog(r, grown)
		merged := Merge(got, grown, newItems, newActs)
		want := refBuild(grown, append(got.Items(), newItems...), append(got.Actions(), newActs...))
		if !reflect.DeepEqual(want, merged) {
			t.Fatalf("round %d: Merge diverges\nbase %+v\nitems %v\nacts %v\nwant %+v\ngot  %+v",
				round, got, newItems, newActs, want, merged)
		}
		checkIsolated(t, merged)
		if again := Build(numUsers, items, acts); !reflect.DeepEqual(again, got) {
			t.Fatalf("round %d: Merge changed its base", round)
		}
	}
}
