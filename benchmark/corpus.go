package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/otim"
	"octopus/internal/shard"
	"octopus/internal/store"
)

// The corpus recipe (README.md, "Corpus"). 10 000 authors puts one
// uncached IM query at tens of milliseconds — clear of loopback HTTP
// noise — while generation + EM + index build stays at seconds.
const (
	// corpusSeed is fixed: the run's -seed draws the request lists and
	// the replay order, not the corpus. One query costs 18 ms on one
	// generated corpus and 28 ms on the next, so a corpus per seed
	// would bury any code change under corpus-to-corpus variation.
	corpusSeed      = 1
	corpusAuthors   = 10000
	corpusTopics    = 8
	heldEpisodeFrac = 0.15 // newest episodes, replayed as the stream
	heldEdgeFrac    = 0.01 // seeded edge sample, replayed as the stream

	batchEvents = 50 // events per ingest POST
	// foldBatches is how many batches one fold swallows: the server's
	// default -rebuild-events 4096 is checked after each applied batch,
	// so it trips on the 82nd 50-event batch (4100 events).
	foldBatches = 82
	// Every edgeBatchEvery-th batch carries edges instead of
	// items/actions: ≈2 % of events, and every fold is edge-bearing.
	edgeBatchEvery = 50
	drillBatches   = 20 // the crash drill's 1 000 acked-but-unfolded events
)

// batch is one ingest POST, rendered at set-up so the sender does no
// encoding work while the clock runs.
type batch struct {
	path    string // /api/ingest/actions or /api/ingest/edges
	body    []byte
	events  int
	actions wireActions // either these
	edges   []wireEdge  // or these
}

type wireItem struct {
	ID       int32    `json:"id"`
	Keywords []string `json:"keywords"`
}

type wireAction struct {
	User int32 `json:"user"`
	Item int32 `json:"item"`
	Time int64 `json:"time"`
}

type wireEdge struct {
	Src int32 `json:"src"`
	Dst int32 `json:"dst"`
}

type wireActions struct {
	Items   []wireItem   `json:"items,omitempty"`
	Actions []wireAction `json:"actions,omitempty"`
}

type wireEdges struct {
	Edges []wireEdge `json:"edges"`
}

// cutStream renders the first n batches of the held-out stream in time
// order: episodes oldest first, each item ahead of its actions, with an
// edge batch (edges in the order given) in every edgeBatchEvery-th
// slot while edges last.
func cutStream(episodes []actionlog.Episode, edges [][2]int32, n int) ([]batch, error) {
	out := make([]batch, 0, n)
	ep, act := 0, -1 // act -1: the episode's item is still to be sent
	for b := 0; b < n; b++ {
		if b%edgeBatchEvery == edgeBatchEvery-1 && len(edges) >= batchEvents {
			var w wireEdges
			for _, e := range edges[:batchEvents] {
				w.Edges = append(w.Edges, wireEdge{Src: e[0], Dst: e[1]})
			}
			edges = edges[batchEvents:]
			body, err := json.Marshal(w)
			if err != nil {
				return nil, err
			}
			out = append(out, batch{path: "/api/ingest/edges", body: body, events: batchEvents, edges: w.Edges})
			continue
		}
		var w wireActions
		for len(w.Items)+len(w.Actions) < batchEvents {
			if ep == len(episodes) {
				return nil, fmt.Errorf("held-out stream ran dry after %d of %d batches", b, n)
			}
			e := &episodes[ep]
			switch {
			case act < 0:
				w.Items = append(w.Items, wireItem{ID: e.Item.ID, Keywords: e.Item.Keywords})
				act = 0
			case act < len(e.Actions):
				a := e.Actions[act]
				w.Actions = append(w.Actions, wireAction{User: a.User, Item: a.Item, Time: a.Time})
				act++
			default:
				ep, act = ep+1, -1
			}
		}
		body, err := json.Marshal(w)
		if err != nil {
			return nil, err
		}
		out = append(out, batch{path: "/api/ingest/actions", body: body, events: batchEvents, actions: w})
	}
	return out, nil
}

// corpus is one seed's prepared data set: the base system (kept
// in-process as the byte-comparison reference), its snapshot on disk,
// and the held-out stream.
type corpus struct {
	sys      *core.System
	snapshot string
	shards   []string // fleet snapshots, after split

	heldEpisodes []actionlog.Episode
	heldEdges    [][2]int32

	// stages times the set-up calls by layer (per-layer metrics).
	stages map[string]metric
}

// prepareCorpus runs the recipe: generate → hold out → EM + index
// build on the base → save.
func prepareCorpus(dir string) (*corpus, error) {
	c := &corpus{stages: map[string]metric{}}
	t := time.Now()
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: corpusAuthors, Topics: corpusTopics, Seed: corpusSeed})
	if err != nil {
		return nil, err
	}
	c.stages["datagen.gen_s"] = metric{time.Since(t).Seconds(), "s"}

	full := ds.Graph
	r := rand.New(rand.NewSource(corpusSeed))
	gb := graph.NewBuilder(full.NumNodes())
	full.EachEdge(func(_ graph.EdgeID, u, v graph.NodeID) {
		if r.Float64() < heldEdgeFrac {
			c.heldEdges = append(c.heldEdges, [2]int32{u, v})
		} else {
			gb.AddEdge(u, v)
		}
	})
	for u, name := range full.Names() {
		gb.SetName(graph.NodeID(u), name)
	}
	baseG := gb.Build()

	// Episodes are simulated one after another, so log order is time
	// order and the newest are the tail.
	eps := ds.Log.Episodes
	split := len(eps) - int(float64(len(eps))*heldEpisodeFrac)
	c.heldEpisodes = eps[split:]
	var items []actionlog.Item
	var acts []actionlog.Action
	for _, ep := range eps[:split] {
		items = append(items, ep.Item)
		acts = append(acts, ep.Actions...)
	}
	baseLog := actionlog.Build(baseG.NumNodes(), items, acts)

	// The same build `octopus build -em` runs.
	c.sys, err = core.Build(baseG, baseLog, core.Config{
		Topics:     corpusTopics,
		TopicNames: ds.TopicNames,
		OTIM:       otim.BuildOptions{Samples: 2 * corpusTopics},
		Seed:       corpusSeed,
	})
	if err != nil {
		return nil, err
	}
	bt := c.sys.Timings()
	c.stages["em.learn_s"] = metric{bt.Model.Seconds(), "s"}
	c.stages["otim.build_s"] = metric{bt.OTIM.Seconds(), "s"}
	c.stages["tags.build_s"] = metric{bt.Tags.Seconds(), "s"}
	c.stages["core.derived_s"] = metric{bt.Derived.Seconds(), "s"}

	c.snapshot = filepath.Join(dir, "base.oct")
	t = time.Now()
	if err := store.Save(c.snapshot, c.sys); err != nil {
		return nil, err
	}
	c.stages["store.save_ms"] = metric{ms(time.Since(t)), "ms"}
	return c, nil
}

// split writes the 2-shard fleet's snapshots beside the base one.
func (c *corpus) split(shards int) error {
	t := time.Now()
	strat, err := shard.ParseStrategy("hash", corpusSeed)
	if err != nil {
		return err
	}
	c.shards, err = shard.WriteFleet(filepath.Dir(c.snapshot), c.sys, strat, shards)
	c.stages["shard.split_ms"] = metric{ms(time.Since(t)), "ms"}
	return err
}

// population is what the request generator draws from: the model's
// vocabulary and the base graph's users, weighted by out-degree.
func (c *corpus) population() *population {
	g := c.sys.Graph()
	p := &population{vocab: c.sys.Keywords().Vocab()}
	total := 0.0
	for u := 0; u < g.NumNodes(); u++ {
		total += float64(1 + g.OutDegree(graph.NodeID(u)))
		p.users = append(p.users, g.Name(graph.NodeID(u)))
		p.cumDegree = append(p.cumDegree, total)
	}
	return p
}

// counts are the /api/status dimensions the live checks compare.
type counts struct{ Nodes, Edges, Episodes int }

func (c *corpus) baseCounts() counts {
	st := c.sys.Stats()
	return counts{st.Nodes, st.Edges, st.Episodes}
}
