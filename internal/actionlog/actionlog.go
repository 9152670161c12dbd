// Package actionlog models the user-generated-content substrate of
// OCTOPUS: items propagated through the network (papers, ads, shared
// URLs), the social actions that propagate them, and the propagation
// episodes the EM learner consumes.
//
// An episode is the observed trace of one item: which users acted on the
// item and when. Combined with the social graph, an episode yields the
// per-edge activation trials (successes and failures) that drive the
// topic-aware IC parameter learning — exactly the "action logs" of
// Section II-B: in the citation network, v citing u's paper is an item
// propagating from u to v, described by the papers' title keywords.
package actionlog

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// NodeID mirrors graph.NodeID without importing the package (keeps this
// leaf package dependency-free).
type NodeID = int32

// Item is a piece of content that propagates through the network.
type Item struct {
	ID       int32
	Keywords []string // descriptive keywords (paper-title words, ad tags)
}

// Action records that User acted on Item at Time (citing, sharing,
// forwarding). Time is an abstract non-negative tick; only its order
// matters.
type Action struct {
	User NodeID
	Item int32
	Time int64
}

// Episode is one item's chronologically ordered action trace.
type Episode struct {
	Item    Item
	Actions []Action // sorted by Time asc, ties broken by User
}

// Log is a set of episodes over a fixed universe of users.
type Log struct {
	Episodes []Episode
	NumUsers int
}

// Build groups raw actions by item, orders them, and assembles a Log.
// Actions referring to items absent from items, or to users outside
// [0,numUsers), are dropped; duplicate (user,item) actions keep the
// earliest occurrence. Where items repeat an id, the last of them
// receives that id's actions and the others stay empty.
//
// Build is map-free: a counting sort deals the valid actions into
// their episodes, and orderEpisode orders and dedups each one.
func Build(numUsers int, items []Item, actions []Action) *Log {
	log := &Log{NumUsers: numUsers}
	if len(items) == 0 {
		return log
	}
	idx, _ := indexItems(items)
	// epOf[i] is action i's episode, -1 when it is dropped; start[e+1]
	// first counts episode e's actions, then ends its range in all.
	epOf := make([]int32, len(actions))
	start := make([]int32, len(items)+1)
	for i, a := range actions {
		ep := int32(-1)
		if a.User >= 0 && int(a.User) < numUsers {
			ep = idx.lookup(a.Item)
		}
		epOf[i] = ep
		if ep >= 0 {
			start[ep+1]++
		}
	}
	for e := range items {
		start[e+1] += start[e]
	}
	all := make([]Action, start[len(items)])
	next := slices.Clone(start[:len(items)])
	for i, a := range actions {
		if ep := epOf[i]; ep >= 0 {
			all[next[ep]] = a
			next[ep]++
		}
	}
	seen := make([]int32, max(numUsers, 0))
	log.Episodes = make([]Episode, len(items))
	for e, it := range items {
		log.Episodes[e] = Episode{Item: it, Actions: orderEpisode(all[start[e]:start[e+1]], seen, int32(e+1))}
	}
	return log
}

// orderEpisode sorts one episode's actions by (time, user) and keeps
// each user's earliest action, compacting acts in place. seen[u] ==
// stamp marks a user already kept, so stamp must not yet occur in seen.
// An empty episode is nil, and the result's capacity ends at its
// length, so appending to one episode never writes into another that
// shares the backing array.
func orderEpisode(acts []Action, seen []int32, stamp int32) []Action {
	slices.SortFunc(acts, func(a, b Action) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.User, b.User)
	})
	n := 0
	for _, a := range acts {
		if seen[a.User] != stamp {
			seen[a.User] = stamp
			acts[n] = a
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return acts[:n:n]
}

// itemIndex resolves item ids to episode indices without a map: the
// (id, episode) pairs sorted by id, one per id, searched by bisection.
type itemIndex []itemPos

type itemPos struct{ id, ep int32 }

// indexItems indexes items by id. Where ids repeat, the last episode
// wins, as in Build, and dup reports it.
func indexItems(items []Item) (idx itemIndex, dup bool) {
	idx = make(itemIndex, len(items))
	for e, it := range items {
		idx[e] = itemPos{it.ID, int32(e)}
	}
	slices.SortFunc(idx, func(a, b itemPos) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.ep, b.ep)
	})
	n := 0
	for i, p := range idx {
		if i+1 < len(idx) && idx[i+1].id == p.id {
			dup = true
			continue
		}
		idx[n] = p
		n++
	}
	return idx[:n], dup
}

// lookup returns id's episode, or -1 when no item has it.
func (x itemIndex) lookup(id int32) int32 {
	lo, hi := 0, len(x)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(x) && x[lo].id == id {
		return x[lo].ep
	}
	return -1
}

// NumActions returns the total number of actions across episodes.
func (l *Log) NumActions() int {
	n := 0
	for _, ep := range l.Episodes {
		n += len(ep.Actions)
	}
	return n
}

// Items returns the items of all episodes in episode order. The slice is
// freshly allocated; Keywords slices are shared with the log.
func (l *Log) Items() []Item {
	out := make([]Item, 0, len(l.Episodes))
	for _, ep := range l.Episodes {
		out = append(out, ep.Item)
	}
	return out
}

// Actions returns a flattened copy of every action across episodes, in
// episode order. Together with Items it lets a caller merge two logs by
// re-running Build over the combined slices.
func (l *Log) Actions() []Action {
	out := make([]Action, 0, l.NumActions())
	for _, ep := range l.Episodes {
		out = append(out, ep.Actions...)
	}
	return out
}

// UserItems returns, for each user, the ids of episodes the user acted
// in — the "items of the user" consulted by the keyword-suggestion
// engine to enumerate candidate keywords — as one table: user u's
// episodes are eps[off[u]:off[u+1]], ascending.
func (l *Log) UserItems() (off, eps []int32) {
	off = make([]int32, l.NumUsers+1)
	for _, ep := range l.Episodes {
		for _, a := range ep.Actions {
			if a.User >= 0 && int(a.User) < l.NumUsers {
				off[a.User+1]++
			}
		}
	}
	for u := 0; u < l.NumUsers; u++ {
		off[u+1] += off[u]
	}
	next := slices.Clone(off[:l.NumUsers])
	eps = make([]int32, off[l.NumUsers])
	for ei, ep := range l.Episodes {
		for _, a := range ep.Actions {
			if a.User >= 0 && int(a.User) < l.NumUsers {
				eps[next[a.User]] = int32(ei)
				next[a.User]++
			}
		}
	}
	return off, eps
}

// Merge extends base with new items and actions, producing exactly what
// Build(numUsers, base.Items()+items, base.Actions()+acts) produces —
// for a cost proportional to the delta and the touched episodes, plus
// an index over the items. Episodes untouched by the new actions share
// their backing slices with base (logs are immutable by convention),
// touched episodes are re-ordered and re-deduped by the helper Build
// uses, and new items append fresh episodes in order. Inputs where
// Build's last-id-wins rule decides — duplicate item ids — or a
// shrinking user universe fall back to a full Build, so Merge is always
// safe to call in Build's place.
func Merge(base *Log, numUsers int, items []Item, acts []Action) *Log {
	if base == nil {
		return Build(numUsers, items, acts)
	}
	full := func() *Log {
		return Build(numUsers, append(base.Items(), items...), append(base.Actions(), acts...))
	}
	if numUsers < base.NumUsers || len(base.Episodes)+len(items) == 0 {
		return full()
	}
	if len(items) == 0 && len(acts) == 0 && numUsers == base.NumUsers {
		return base // empty delta: the merged log IS the base (immutable)
	}
	out := &Log{NumUsers: numUsers}
	out.Episodes = make([]Episode, len(base.Episodes), len(base.Episodes)+len(items))
	copy(out.Episodes, base.Episodes)
	for _, it := range items {
		out.Episodes = append(out.Episodes, Episode{Item: it})
	}
	idx, dup := indexItems(out.Items())
	if dup {
		return full()
	}

	// Group the accepted new actions by episode.
	type epAction struct {
		ep int32
		a  Action
	}
	var touched []epAction
	for _, a := range acts {
		if a.User < 0 || int(a.User) >= numUsers {
			continue
		}
		if ep := idx.lookup(a.Item); ep >= 0 {
			touched = append(touched, epAction{ep, a})
		}
	}
	slices.SortFunc(touched, func(x, y epAction) int { return cmp.Compare(x.ep, y.ep) })
	seen := make([]int32, max(numUsers, 0))
	for i := 0; i < len(touched); {
		ep := touched[i].ep
		j := i + 1
		for j < len(touched) && touched[j].ep == ep {
			j++
		}
		// A fresh slice: base's episode stays untouched.
		e := &out.Episodes[ep]
		merged := make([]Action, 0, len(e.Actions)+j-i)
		merged = append(merged, e.Actions...)
		for _, t := range touched[i:j] {
			merged = append(merged, t.a)
		}
		e.Actions = orderEpisode(merged, seen, ep+1)
		i = j
	}
	return out
}

// Write serializes the log in a line-oriented text format:
//
//	log <numUsers>
//	i <itemID> <kw1,kw2,...>
//	a <itemID> <user> <time>
func Write(w io.Writer, l *Log) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "log %d\n", l.NumUsers); err != nil {
		return err
	}
	for _, ep := range l.Episodes {
		if _, err := fmt.Fprintf(bw, "i %d %s\n", ep.Item.ID, strings.Join(ep.Item.Keywords, ",")); err != nil {
			return err
		}
		for _, a := range ep.Actions {
			if _, err := fmt.Fprintf(bw, "a %d %d %d\n", a.Item, a.User, a.Time); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read parses the format produced by Write.
func Read(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	numUsers := -1
	var items []Item
	var actions []Action
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "log":
			if len(f) != 2 {
				return nil, fmt.Errorf("actionlog: line %d: malformed header", lineNo)
			}
			n, err := strconv.Atoi(f[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("actionlog: line %d: bad user count", lineNo)
			}
			numUsers = n
		case "i":
			if len(f) < 2 {
				return nil, fmt.Errorf("actionlog: line %d: malformed item", lineNo)
			}
			id, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, fmt.Errorf("actionlog: line %d: bad item id", lineNo)
			}
			var kws []string
			if len(f) >= 3 {
				for _, k := range strings.Split(f[2], ",") {
					if k != "" {
						kws = append(kws, k)
					}
				}
			}
			items = append(items, Item{ID: int32(id), Keywords: kws})
		case "a":
			if len(f) != 4 {
				return nil, fmt.Errorf("actionlog: line %d: malformed action", lineNo)
			}
			item, e1 := strconv.Atoi(f[1])
			user, e2 := strconv.Atoi(f[2])
			tm, e3 := strconv.ParseInt(f[3], 10, 64)
			if e1 != nil || e2 != nil || e3 != nil || user < 0 {
				return nil, fmt.Errorf("actionlog: line %d: bad action fields", lineNo)
			}
			actions = append(actions, Action{User: NodeID(user), Item: int32(item), Time: tm})
		default:
			return nil, fmt.Errorf("actionlog: line %d: unknown record %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("actionlog: read: %w", err)
	}
	if numUsers < 0 {
		return nil, fmt.Errorf("actionlog: missing log header")
	}
	return Build(numUsers, items, actions), nil
}
