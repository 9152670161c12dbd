package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleCost() *Cost {
	return &Cost{
		OTIM: OTIMCost{CheapBounds: 300, LocalBounds: 40, ExactEvals: 7, HeapOps: 350},
		MIA:  MIACost{Trees: 7, Nodes: 210, Edges: 940},
		Tags: TagsCost{Polls: 64, Trees: 128, Coins: 4096},
		RIS:  RISCost{Samples: 1000, Nodes: 5200, Edges: 17000},
	}
}

func TestCostIsZero(t *testing.T) {
	var nilCost *Cost
	if !nilCost.IsZero() {
		t.Error("nil cost not zero")
	}
	if !(&Cost{}).IsZero() {
		t.Error("empty cost not zero")
	}
	if sampleCost().IsZero() {
		t.Error("populated cost reported zero")
	}
}

func TestCostMerge(t *testing.T) {
	c := sampleCost()
	c.Merge(sampleCost())
	if c.OTIM.CheapBounds != 600 || c.MIA.Edges != 1880 || c.RIS.Samples != 2000 {
		t.Errorf("merge did not double counters: %+v", c)
	}
	// Nil receiver and nil argument are both no-ops, not panics.
	var nilCost *Cost
	nilCost.Merge(sampleCost())
	before := *c
	c.Merge(nil)
	if *c != before {
		t.Error("merging nil changed the receiver")
	}
}

func TestCostTotals(t *testing.T) {
	c := sampleCost()
	if got, want := c.NodesTouched(), uint64(210+5200); got != want {
		t.Errorf("NodesTouched = %d, want %d", got, want)
	}
	if got, want := c.SamplesMixed(), uint64(128+1000); got != want {
		t.Errorf("SamplesMixed = %d, want %d", got, want)
	}
	var nilCost *Cost
	if nilCost.NodesTouched() != 0 || nilCost.SamplesMixed() != 0 {
		t.Error("nil cost totals not zero")
	}
}

func TestCostCompact(t *testing.T) {
	if got := (&Cost{}).Compact(); got != "none" {
		t.Errorf("zero cost Compact = %q, want none", got)
	}
	c := &Cost{
		OTIM: OTIMCost{CheapBounds: 300, ExactEvals: 7},
		MIA:  MIACost{Trees: 7, Nodes: 210},
	}
	want := "otim.cheap=300 otim.exact=7 mia.trees=7 mia.nodes=210"
	if got := c.Compact(); got != want {
		t.Errorf("Compact = %q, want %q", got, want)
	}
	// Every field renders, in the documented fixed order.
	full := sampleCost().Compact()
	order := []string{
		"otim.cheap=", "otim.local=", "otim.exact=", "otim.heap=",
		"mia.trees=", "mia.nodes=", "mia.edges=",
		"tags.polls=", "tags.trees=", "tags.coins=",
		"ris.samples=", "ris.nodes=", "ris.edges=",
	}
	pos := -1
	for _, key := range order {
		i := strings.Index(full, key)
		if i < 0 {
			t.Fatalf("Compact missing %q: %s", key, full)
		}
		if i < pos {
			t.Fatalf("Compact out of order at %q: %s", key, full)
		}
		pos = i
	}
}

func TestCostJSONShape(t *testing.T) {
	data, err := json.Marshal(sampleCost())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]uint64
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("cost JSON is not two-level numeric: %v\n%s", err, data)
	}
	if doc["otim"]["cheapBounds"] != 300 || doc["ris"]["samples"] != 1000 {
		t.Errorf("unexpected JSON values: %s", data)
	}
	var back Cost
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != *sampleCost() {
		t.Errorf("JSON round-trip lost fields: %+v", back)
	}
}

func TestParseCompactRoundTrip(t *testing.T) {
	for _, c := range []*Cost{
		{},
		sampleCost(),
		{OTIM: OTIMCost{ExactEvals: 1}},
		{RIS: RISCost{Edges: ^uint64(0)}},
		{MIA: MIACost{Trees: 7, Nodes: 210}, Tags: TagsCost{Coins: 3}},
	} {
		s := c.Compact()
		got, err := ParseCompact(s)
		if err != nil {
			t.Fatalf("ParseCompact(%q): %v", s, err)
		}
		if *got != *c {
			t.Errorf("ParseCompact(%q) = %+v, want %+v", s, got, c)
		}
	}
	for _, bad := range []string{
		"", " ", "none ", "otim.cheap", "otim.cheap=", "otim.cheap=0",
		"otim.cheap=07", "otim.cheap=+7", "otim.cheap=-7", "otim.cheap=1.5",
		"otim.cheap=18446744073709551616", "otim.bogus=3",
		"mia.trees=1 otim.cheap=1", "otim.cheap=1 otim.cheap=2",
		"otim.cheap=1  otim.local=2", "otim.cheap=1 ", "OTIM.cheap=1",
	} {
		if c, err := ParseCompact(bad); err == nil {
			t.Errorf("ParseCompact(%q) accepted %+v", bad, c)
		}
	}
}

// FuzzParseCompact checks that ParseCompact accepts exactly Compact's
// renderings: whatever it parses renders back to the same string.
func FuzzParseCompact(f *testing.F) {
	f.Add("none")
	f.Add(sampleCost().Compact())
	f.Add("otim.exact=7 mia.nodes=210")
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCompact(s)
		if err != nil {
			return
		}
		if got := c.Compact(); got != s {
			t.Fatalf("ParseCompact(%q) renders back as %q", s, got)
		}
	})
}
