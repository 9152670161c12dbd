package graph

import (
	"bytes"
	"testing"

	"octopus/internal/arena"
)

func buildSample() *Graph {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(4, 3)
	b.SetName(0, "alice")
	b.SetName(4, "eve smith")
	return b.Build()
}

func TestBinaryRoundTrip(t *testing.T) {
	g := buildSample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadView(arena.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("dims = (%d,%d), want (%d,%d)",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	g.EachEdge(func(e EdgeID, u, v NodeID) {
		e2, ok := g2.FindEdge(u, v)
		if !ok || e2 != e {
			t.Fatalf("edge (%d,%d) id %d -> (%d,%v)", u, v, e, e2, ok)
		}
	})
	// Reverse adjacency survives.
	if g2.InDegree(2) != g.InDegree(2) {
		t.Fatalf("in-degree(2) = %d, want %d", g2.InDegree(2), g.InDegree(2))
	}
	if g2.Name(4) != "eve smith" {
		t.Fatalf("name(4) = %q", g2.Name(4))
	}
	if id, ok := g2.Lookup("alice"); !ok || id != 0 {
		t.Fatalf("lookup(alice) = (%d,%v)", id, ok)
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRoundTripNoNames(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadView(arena.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.Names() != nil {
		t.Fatalf("names = %v, want nil", g2.Names())
	}
	if g2.Name(0) != "" {
		t.Fatalf("name(0) = %q", g2.Name(0))
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := buildSample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncation at every prefix must error, never panic.
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadView(arena.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// An out-of-range destination must be caught.
	bad := append([]byte(nil), full...)
	// outDst entries start after: version(1) + n(4) + pad(3) + offLen(8)
	// + offs (6×4, already 8-aligned) + dstLen(8).
	off := 8 + 8 + 4*(g.NumNodes()+1) + 8
	bad[off] = 0xff
	bad[off+1] = 0xff
	bad[off+2] = 0xff
	bad[off+3] = 0x7f
	if _, err := ReadView(arena.NewReader(bad)); err == nil {
		t.Fatal("corrupt destination accepted")
	}
}
