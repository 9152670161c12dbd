// Quickstart: generate a small citation network, build OCTOPUS, and ask
// the three headline questions — who is influential on a topic, what are
// a user's selling points, and how does influence flow.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"octopus"
	"octopus/internal/tags"
)

func main() {
	// 1. Data: a synthetic stand-in for the ACMCite citation network.
	ds, err := octopus.GenerateCitation(octopus.CitationConfig{
		Authors: 1000,
		Topics:  4,
		Seed:    42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build the system. Here we adopt the generator's ground-truth
	// model; pass Config{Topics: 4} instead to learn it from the action
	// log with EM.
	sys, err := octopus.Build(ds.Graph, ds.Log, octopus.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3a. Keyword-based influence maximization (Scenario 1).
	res, err := sys.DiscoverInfluencers([]string{"data", "mining"},
		octopus.DiscoverOptions{K: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Top influencers for \"data mining\":")
	for i, s := range res.Seeds {
		fmt.Printf("  %d. %s (σ=%.1f, aspect: %s)\n", i+1, s.Name, s.Spread, s.TopTopicName)
	}

	// 3b. Personalized influential keywords (Scenario 2). The UI finds
	// the target by typing a name prefix into the auto-completer.
	target := res.Seeds[0].User
	prefix := res.Seeds[0].Name[:min(3, len(res.Seeds[0].Name))]
	var names []string
	for _, c := range sys.Complete(prefix, 3) {
		names = append(names, c.Key)
	}
	fmt.Printf("\nTyping %q completes to %q\n", prefix, names)
	sug, err := sys.SuggestKeywords(target, 3, tags.SuggestOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Selling points of %s: %v (est. σ=%.1f)\n",
		res.Seeds[0].Name, sug.Keywords, sug.Spread)

	// 3c. Influential paths (Scenario 3).
	pg, err := sys.InfluencePaths(target, octopus.PathOptions{Theta: 0.02, MaxNodes: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s influences %d users directly/indirectly (σ=%.1f); strongest paths:\n",
		res.Seeds[0].Name, len(pg.Nodes)-1, pg.Spread)
	for _, n := range pg.Nodes[1:] {
		fmt.Printf("  → %s (ap=%.3f)\n", n.Name, n.Prob)
	}

	// Clicking a node in the path view highlights its path from the root.
	path, err := sys.HighlightPath(pg, pg.Nodes[len(pg.Nodes)-1].ID)
	if err != nil {
		log.Fatal(err)
	}
	var hops []string
	for _, u := range path {
		hops = append(hops, sys.Graph().Name(u))
	}
	fmt.Println("Clicking the last node highlights:", strings.Join(hops, " → "))
}
