// Marketing reproduces the QQ deployment scenario (Section III): a
// community-structured social network with product-share actions, where
// an advertiser asks OCTOPUS which users to push a "game" ad to, and a
// seller asks which product keywords make a given user influential.
// A small holdout experiment measures the value of topic-aware seeding:
// simulated ad cascades from OCTOPUS seeds vs degree-based vs random.
//
// Run with: go run ./examples/marketing
package main

import (
	"fmt"
	"log"
	"sort"

	"octopus"
	"octopus/internal/graph"
	"octopus/internal/rng"
	"octopus/internal/tags"
	"octopus/internal/tic"
)

func main() {
	ds, err := octopus.GenerateSocial(octopus.SocialConfig{
		Users:  4000,
		Topics: 6,
		Seed:   11,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := octopus.Build(ds.Graph, ds.Log, octopus.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Advertiser: who should receive the "game" ad?
	const k = 10
	res, err := sys.DiscoverInfluencers([]string{"game"}, octopus.DiscoverOptions{K: k})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Push the game ad to:")
	for i, s := range res.Seeds {
		fmt.Printf("  %2d. %s (σ=%.1f)\n", i+1, s.Name, s.Spread)
	}

	// Holdout: simulate the ad campaign under the ground-truth model and
	// compare seeding strategies at equal budget k.
	gamma := res.Gamma
	sim := tic.NewSimulator(ds.Truth)
	evaluate := func(seeds []graph.NodeID) float64 {
		return sim.EstimateSpread(seeds, gamma, 2000, rng.New(99))
	}
	octopusSeeds := make([]graph.NodeID, 0, k)
	for _, s := range res.Seeds {
		octopusSeeds = append(octopusSeeds, s.User)
	}
	// Weighted degree: the expected number of directly activated
	// neighbours, Σ of a node's outgoing edge probabilities.
	w := ds.Truth.Weights(gamma)
	n := ds.Graph.NumNodes()
	wdeg := make([]float64, n)
	byDeg := make([]graph.NodeID, n)
	for u := range byDeg {
		byDeg[u] = graph.NodeID(u)
		lo, hi := ds.Graph.OutEdges(graph.NodeID(u))
		for e := lo; e < hi; e++ {
			wdeg[u] += w[e]
		}
	}
	sort.SliceStable(byDeg, func(a, b int) bool { return wdeg[byDeg[a]] > wdeg[byDeg[b]] })
	degSeeds := byDeg[:k]
	rndSeeds := make([]graph.NodeID, 0, k)
	for _, u := range rng.New(5).Sample(n, k) {
		rndSeeds = append(rndSeeds, graph.NodeID(u))
	}

	fmt.Printf("\nSimulated campaign reach (IC cascades, budget k=%d):\n", k)
	fmt.Printf("  OCTOPUS topic-aware seeds: %8.1f users\n", evaluate(octopusSeeds))
	fmt.Printf("  weighted-degree seeds:     %8.1f users\n", evaluate(degSeeds))
	fmt.Printf("  random seeds:              %8.1f users\n", evaluate(rndSeeds))

	// Targeted campaign: the advertiser only cares about reaching the
	// gaming audience (users whose dominant interest is topic 0 in the
	// ground truth — a stand-in for a CRM segment).
	var audience []graph.NodeID
	for u, mix := range ds.Mixtures {
		if mix.Top(1)[0] == 0 {
			audience = append(audience, graph.NodeID(u))
		}
	}
	if len(audience) > 0 {
		tres, err := sys.DiscoverTargetedInfluencers([]string{"game"}, audience, 5, 20000, 9, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nTargeted campaign (audience: %d gaming users): reach %.1f of them via\n",
			len(audience), tres.AudienceSpread)
		for i, s := range tres.Seeds {
			fmt.Printf("  %d. %s (audience σ=%.1f)\n", i+1, s.Name, s.Spread)
		}
	}

	// Seller: which product keywords make this influencer valuable?
	// MinCoherence keeps the suggested set within one product category
	// (the paper: "suggested keywords are consistent in topics").
	target := octopusSeeds[0]
	sug, err := sys.SuggestKeywords(target, 3, tags.SuggestOptions{MinCoherence: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s is most influential for products tagged %v (est. σ=%.1f)\n",
		ds.Graph.Name(target), sug.Keywords, sug.Spread)
	ranked, err := sys.RankUserKeywords(target, 6, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("full keyword ranking for this user:")
	for _, kw := range ranked {
		fmt.Printf("  %-14s σ=%.1f\n", kw.Keyword, kw.Spread)
	}
}
