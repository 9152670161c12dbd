package heaps

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestMaxOrdering(t *testing.T) {
	h := NewMax(0)
	keys := []float64{3, 1, 4, 1.5, 9, 2.6, 5}
	for i, k := range keys {
		h.Push(Item{ID: int32(i), Key: k})
	}
	want := append([]float64(nil), keys...)
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	for i, w := range want {
		if got := h.Pop().Key; got != w {
			t.Fatalf("pop %d = %v, want %v", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not empty: %d", h.Len())
	}
}

func TestMaxPeekAndReset(t *testing.T) {
	h := NewMax(4)
	h.Push(Item{ID: 1, Key: 2})
	h.Push(Item{ID: 2, Key: 7})
	if h.Peek().ID != 2 {
		t.Fatalf("Peek = %v", h.Peek())
	}
	if h.Len() != 2 {
		t.Fatalf("Peek consumed an item")
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not empty heap")
	}
}

func TestMaxRoundCarried(t *testing.T) {
	h := NewMax(1)
	h.Push(Item{ID: 5, Key: 1, Round: 42})
	if got := h.Pop(); got.Round != 42 || got.ID != 5 {
		t.Fatalf("round/id lost: %+v", got)
	}
}

func TestMaxQuickSortedOutput(t *testing.T) {
	f := func(keys []float64) bool {
		h := NewMax(len(keys))
		for i, k := range keys {
			h.Push(Item{ID: int32(i), Key: k})
		}
		prev := 0.0
		for i := 0; h.Len() > 0; i++ {
			k := h.Pop().Key
			if i > 0 && k > prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxEqualKeysPopByID(t *testing.T) {
	// Equal keys must pop in ascending id order regardless of insertion
	// order — ranked endpoints rely on this for stable tie-breaks.
	perms := [][]int32{{4, 2, 9, 1}, {1, 2, 4, 9}, {9, 4, 2, 1}, {2, 9, 1, 4}}
	for _, perm := range perms {
		h := NewMax(len(perm))
		for _, id := range perm {
			h.Push(Item{ID: id, Key: 7.5})
		}
		h.Push(Item{ID: 100, Key: 9}) // strictly larger key still wins
		h.Push(Item{ID: 0, Key: 1})   // strictly smaller key still loses
		want := []int32{100, 1, 2, 4, 9, 0}
		for i, w := range want {
			if got := h.Pop().ID; got != w {
				t.Fatalf("insertion %v: pop %d = id %d, want %d", perm, i, got, w)
			}
		}
	}
}

func TestIndexedEqualKeysPopByID(t *testing.T) {
	perms := [][]int32{{4, 2, 9, 1}, {1, 2, 4, 9}, {9, 4, 2, 1}, {2, 9, 1, 4}}
	for _, perm := range perms {
		h := NewIndexed(16)
		for _, id := range perm {
			h.Push(id, 3.25)
		}
		want := []int32{1, 2, 4, 9}
		for i, w := range want {
			if got, _ := h.PopMax(); got != w {
				t.Fatalf("insertion %v: pop %d = id %d, want %d", perm, i, got, w)
			}
		}
	}
}

func TestIndexedBasics(t *testing.T) {
	h := NewIndexed(10)
	h.Push(3, 1.0)
	h.Push(7, 5.0)
	h.Push(1, 3.0)
	if !h.Contains(7) || h.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if k, ok := h.Key(1); !ok || k != 3.0 {
		t.Fatalf("Key(1) = %v,%v", k, ok)
	}
	if id, k := h.PeekMax(); id != 7 || k != 5.0 {
		t.Fatalf("PeekMax = %d,%v", id, k)
	}
	id, k := h.PopMax()
	if id != 7 || k != 5.0 {
		t.Fatalf("PopMax = %d,%v", id, k)
	}
	if h.Contains(7) {
		t.Fatal("popped id still present")
	}
}

func TestIndexedUpdate(t *testing.T) {
	h := NewIndexed(10)
	for i := int32(0); i < 5; i++ {
		h.Push(i, float64(i))
	}
	h.Update(0, 100) // increase-key
	if id, _ := h.PeekMax(); id != 0 {
		t.Fatalf("after increase-key top = %d", id)
	}
	h.Update(0, -1) // decrease-key
	if id, _ := h.PeekMax(); id != 4 {
		t.Fatalf("after decrease-key top = %d", id)
	}
	h.Update(9, 50) // upsert of absent id
	if id, _ := h.PeekMax(); id != 9 {
		t.Fatalf("after upsert top = %d", id)
	}
}

func TestIndexedRemove(t *testing.T) {
	h := NewIndexed(6)
	for i := int32(0); i < 6; i++ {
		h.Push(i, float64(i*i%7))
	}
	h.Remove(3)
	h.Remove(3) // double remove is a no-op
	if h.Contains(3) {
		t.Fatal("Remove left id behind")
	}
	seen := map[int32]bool{}
	prev := 1e18
	for h.Len() > 0 {
		id, k := h.PopMax()
		if k > prev {
			t.Fatalf("heap order violated after Remove")
		}
		prev = k
		seen[id] = true
	}
	if len(seen) != 5 || seen[3] {
		t.Fatalf("wrong survivors: %v", seen)
	}
}

func TestIndexedClear(t *testing.T) {
	h := NewIndexed(8)
	for i := int32(0); i < 8; i++ {
		h.Push(i, float64(i))
	}
	h.Clear()
	if h.Len() != 0 {
		t.Fatalf("Clear left %d items", h.Len())
	}
	for i := int32(0); i < 8; i++ {
		if h.Contains(i) {
			t.Fatalf("Clear left id %d registered", i)
		}
	}
	// Heap must be fully reusable after Clear.
	h.Push(3, 9)
	if id, k := h.PeekMax(); id != 3 || k != 9 {
		t.Fatalf("reuse after Clear broken: %d,%v", id, k)
	}
}

func TestIndexedPushDuplicatePanics(t *testing.T) {
	h := NewIndexed(3)
	h.Push(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Push did not panic")
		}
	}()
	h.Push(1, 2)
}

func TestIndexedQuickHeapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h := NewIndexed(256)
		live := map[int32]float64{}
		for _, op := range ops {
			id := int32(op & 0xff)
			key := float64(op >> 8)
			h.Update(id, key)
			live[id] = key
		}
		prev := 1e18
		for h.Len() > 0 {
			id, k := h.PopMax()
			if k > prev || live[id] != k {
				return false
			}
			prev = k
			delete(live, id)
		}
		return len(live) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIndexedUpdate(b *testing.B) {
	h := NewIndexed(1 << 12)
	for i := int32(0); i < 1<<12; i++ {
		h.Push(i, float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Update(int32(i&0xfff), float64(i%97))
	}
}

func BenchmarkMaxPushPop(b *testing.B) {
	h := NewMax(1024)
	for i := 0; i < b.N; i++ {
		h.Push(Item{ID: int32(i), Key: float64(i % 1024)})
		if h.Len() > 1024 {
			h.Pop()
		}
	}
}
