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
	"fmt"
	"io"
	"sort"
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
// earliest occurrence.
func Build(numUsers int, items []Item, actions []Action) *Log {
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
// engine to enumerate candidate keywords.
func (l *Log) UserItems() [][]int32 {
	out := make([][]int32, l.NumUsers)
	for ei, ep := range l.Episodes {
		for _, a := range ep.Actions {
			if int(a.User) < l.NumUsers {
				out[a.User] = append(out[a.User], int32(ei))
			}
		}
	}
	return out
}

// Merge extends base with new items and actions, producing exactly what
// Build(numUsers, base.Items()+items, base.Actions()+acts) produces —
// for a cost proportional to the delta, not the corpus. Episodes
// untouched by the new actions share their backing slices with base
// (logs are immutable by convention), touched episodes are re-merged
// with the earliest-occurrence dedup Build applies, and new items append
// fresh episodes in order. Inputs Build would handle through its global
// maps — duplicate item ids or a shrinking user universe — fall back to
// a full Build, so Merge is always safe to call in Build's place.
func Merge(base *Log, numUsers int, items []Item, acts []Action) *Log {
	full := func() *Log {
		return Build(numUsers, append(base.Items(), items...), append(base.Actions(), acts...))
	}
	if base == nil {
		return Build(numUsers, items, acts)
	}
	if numUsers < base.NumUsers {
		return full()
	}
	if len(items) == 0 && len(acts) == 0 && numUsers == base.NumUsers {
		return base // empty delta: the merged log IS the base (immutable)
	}
	epIdx := make(map[int32]int, len(base.Episodes)+len(items))
	for i, ep := range base.Episodes {
		if _, dup := epIdx[ep.Item.ID]; dup {
			return full() // base itself holds duplicate ids: Build semantics are map-driven
		}
		epIdx[ep.Item.ID] = i
	}
	out := &Log{NumUsers: numUsers}
	out.Episodes = make([]Episode, len(base.Episodes), len(base.Episodes)+len(items))
	copy(out.Episodes, base.Episodes)
	for _, it := range items {
		if _, dup := epIdx[it.ID]; dup {
			return full()
		}
		epIdx[it.ID] = len(out.Episodes)
		out.Episodes = append(out.Episodes, Episode{Item: it})
	}

	// Group the accepted new actions per episode, keeping the earliest
	// occurrence per user within the delta (Build's global dedup).
	newByEp := map[int]map[NodeID]int64{}
	for _, a := range acts {
		if a.User < 0 || int(a.User) >= numUsers {
			continue
		}
		ei, ok := epIdx[a.Item]
		if !ok {
			continue
		}
		users := newByEp[ei]
		if users == nil {
			users = map[NodeID]int64{}
			newByEp[ei] = users
		}
		if t, dup := users[a.User]; !dup || a.Time < t {
			users[a.User] = a.Time
		}
	}

	for ei, users := range newByEp {
		ep := out.Episodes[ei] // value copy; base's slice stays untouched
		merged := make([]Action, 0, len(ep.Actions)+len(users))
		for _, a := range ep.Actions {
			// An earlier new occurrence wins over the stored one, exactly
			// as Build's min-time dedup would decide.
			if t, dup := users[a.User]; dup {
				delete(users, a.User)
				if t < a.Time {
					a.Time = t
				}
			}
			merged = append(merged, a)
		}
		for u, t := range users {
			merged = append(merged, Action{User: u, Item: ep.Item.ID, Time: t})
		}
		sort.Slice(merged, func(i, j int) bool {
			if merged[i].Time != merged[j].Time {
				return merged[i].Time < merged[j].Time
			}
			return merged[i].User < merged[j].User
		})
		ep.Actions = merged
		out.Episodes[ei] = ep
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
