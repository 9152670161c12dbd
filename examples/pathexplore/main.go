// Pathexplore demonstrates the influential-path service end to end the
// way the browser UI consumes it: it builds a system, starts the JSON
// HTTP API in-process, fetches the d3-ready path payload over HTTP,
// exercises the click-highlight interaction, and writes the JSON graph
// to paths.json for inspection.
//
// Run with: go run ./examples/pathexplore
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"

	"octopus"
	"octopus/internal/graph"
)

func main() {
	ds, err := octopus.GenerateCitation(octopus.CitationConfig{
		Authors: 1500,
		Topics:  4,
		Seed:    21,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := octopus.Build(ds.Graph, ds.Log, octopus.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Serve the JSON API exactly as `octopus serve` would.
	ts := httptest.NewServer(octopus.NewServer(sys, octopus.ServerOptions{}))
	defer ts.Close()

	// The most-cited author is our "Michael Jordan".
	var hub graph.NodeID
	best := -1
	for u := 0; u < ds.Graph.NumNodes(); u++ {
		if d := ds.Graph.OutDegree(graph.NodeID(u)); d > best {
			best, hub = d, graph.NodeID(u)
		}
	}
	name := ds.Graph.Name(hub)
	fmt.Printf("exploring how %q influences the community…\n", name)

	body := mustGet(ts.URL + "/api/paths?user=" + url.QueryEscape(name) + "&theta=0.01&max=120")
	var pg octopus.PathGraph
	if err := json.Unmarshal(body, &pg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree: %d nodes, %d links, spread %.1f, θ=%.2g\n",
		len(pg.Nodes), len(pg.Links), pg.Spread, pg.Theta)

	// The UI scales node radius by the "effect" (subtree mass): top 5.
	fmt.Println("largest-effect influenced users:")
	count := 0
	for _, n := range pg.Nodes[1:] {
		if count >= 5 {
			break
		}
		fmt.Printf("  %-24s ap=%.3f effect=%.2f depth=%d\n", n.Name, n.Prob, n.Size, n.Depth)
		count++
	}

	// Click interaction: highlight the path through a deep node.
	deep := pg.Nodes[len(pg.Nodes)-1]
	hl := mustGet(fmt.Sprintf("%s/api/paths?user=%s&theta=0.01&max=120&highlight=%d",
		ts.URL, url.QueryEscape(name), deep.ID))
	var withHL struct {
		Highlight []int32 `json:"highlight"`
	}
	if err := json.Unmarshal(hl, &withHL); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clicking %q highlights a %d-hop path from the root\n",
		deep.Name, len(withHL.Highlight)-1)

	// Reverse direction: who influences a recent author?
	var sink graph.NodeID
	best = -1
	for u := 0; u < ds.Graph.NumNodes(); u++ {
		if d := ds.Graph.InDegree(graph.NodeID(u)); d > best {
			best, sink = d, graph.NodeID(u)
		}
	}
	rev := mustGet(ts.URL + "/api/paths?user=" +
		url.QueryEscape(ds.Graph.Name(sink)) + "&reverse=1&theta=0.01")
	var rpg octopus.PathGraph
	if err := json.Unmarshal(rev, &rpg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%q is influenced by %d users; strongest influencer: ",
		ds.Graph.Name(sink), len(rpg.Nodes)-1)
	if len(rpg.Nodes) > 1 {
		fmt.Printf("%s (ap=%.3f)\n", rpg.Nodes[1].Name, rpg.Nodes[1].Prob)
	} else {
		fmt.Println("nobody")
	}

	// Persist the d3 payload.
	if err := os.WriteFile("paths.json", body, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote paths.json (d3 force-layout ready: {nodes:[…], links:[…]})")
}

func mustGet(u string) []byte {
	resp, err := http.Get(u)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %s: %s", u, resp.Status, body)
	}
	return body
}
