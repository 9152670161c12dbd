// Package heaps provides the priority queues used by the influence
// engines: a float64-keyed max-heap with stable iteration order and a
// lazy-forward (CELF-style) queue whose entries carry a staleness round,
// plus an indexed variant supporting decrease/increase-key by item id.
package heaps

// Item is one entry of a Max heap: an opaque id ordered by Key.
type Item struct {
	ID int32
	// Round tags when Key was computed; CELF-style consumers compare it
	// against the current round to detect stale entries.
	Round int32
	Key   float64
}

// Max is a binary max-heap of Items. The zero value is an empty heap.
type Max struct {
	items []Item
}

// outranks reports whether (aKey, aID) should sit above (bKey, bID) in
// a max-heap: larger key first, equal keys broken by smaller id. The
// tie-break makes heap order — and therefore every ranked result built
// by popping one — a pure function of the item set, independent of
// insertion order, so single-process and merged-shard rankings stay
// comparable.
func outranks(aKey float64, aID int32, bKey float64, bID int32) bool {
	if aKey != bKey {
		return aKey > bKey
	}
	return aID < bID
}

// NewMax returns a heap with capacity hint n.
func NewMax(n int) *Max { return &Max{items: make([]Item, 0, n)} }

// Len returns the number of items.
func (h *Max) Len() int { return len(h.items) }

// Push inserts an item.
func (h *Max) Push(it Item) {
	h.items = append(h.items, it)
	h.up(len(h.items) - 1)
}

// Peek returns the max item without removing it. It panics on empty heaps.
func (h *Max) Peek() Item { return h.items[0] }

// Pop removes and returns the max item. It panics on empty heaps.
func (h *Max) Pop() Item {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// Reset empties the heap, keeping the backing array.
func (h *Max) Reset() { h.items = h.items[:0] }

func (h *Max) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !outranks(h.items[i].Key, h.items[i].ID, h.items[p].Key, h.items[p].ID) {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *Max) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && outranks(h.items[l].Key, h.items[l].ID, h.items[largest].Key, h.items[largest].ID) {
			largest = l
		}
		if r < n && outranks(h.items[r].Key, h.items[r].ID, h.items[largest].Key, h.items[largest].ID) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// Indexed is a max-heap over ids [0,n) supporting Update (change key) and
// Remove by id in O(log n). Each id may appear at most once.
type Indexed struct {
	ids  []int32   // heap order -> id
	keys []float64 // heap order -> key
	pos  []int32   // id -> heap position, -1 if absent
}

// NewIndexed returns an empty indexed heap over ids [0,n).
func NewIndexed(n int) *Indexed {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &Indexed{pos: pos}
}

// Len returns the number of items in the heap.
func (h *Indexed) Len() int { return len(h.ids) }

// Contains reports whether id is currently in the heap.
func (h *Indexed) Contains(id int32) bool { return h.pos[id] >= 0 }

// Key returns the current key of id; ok is false if id is absent.
func (h *Indexed) Key(id int32) (key float64, ok bool) {
	p := h.pos[id]
	if p < 0 {
		return 0, false
	}
	return h.keys[p], true
}

// Push inserts id with the given key. It panics if id is already present.
func (h *Indexed) Push(id int32, key float64) {
	if h.pos[id] >= 0 {
		panic("heaps: Indexed.Push of present id")
	}
	h.ids = append(h.ids, id)
	h.keys = append(h.keys, key)
	h.pos[id] = int32(len(h.ids) - 1)
	h.up(len(h.ids) - 1)
}

// Update changes the key of id (present or not; absent ids are inserted).
func (h *Indexed) Update(id int32, key float64) {
	p := h.pos[id]
	if p < 0 {
		h.Push(id, key)
		return
	}
	old := h.keys[p]
	h.keys[p] = key
	if key > old {
		h.up(int(p))
	} else {
		h.down(int(p))
	}
}

// PopMax removes and returns the id with the largest key.
func (h *Indexed) PopMax() (id int32, key float64) {
	id, key = h.ids[0], h.keys[0]
	h.swap(0, len(h.ids)-1)
	h.pos[id] = -1
	h.ids = h.ids[:len(h.ids)-1]
	h.keys = h.keys[:len(h.keys)-1]
	if len(h.ids) > 0 {
		h.down(0)
	}
	return id, key
}

// PeekMax returns the id and key at the top without removing it.
func (h *Indexed) PeekMax() (id int32, key float64) { return h.ids[0], h.keys[0] }

// Remove deletes id from the heap if present.
func (h *Indexed) Remove(id int32) {
	p := h.pos[id]
	if p < 0 {
		return
	}
	last := len(h.ids) - 1
	h.swap(int(p), last)
	h.pos[id] = -1
	h.ids = h.ids[:last]
	h.keys = h.keys[:last]
	if int(p) < last {
		h.down(int(p))
		h.up(int(p))
	}
}

// Clear empties the heap in O(items), keeping backing storage for reuse.
func (h *Indexed) Clear() {
	for _, id := range h.ids {
		h.pos[id] = -1
	}
	h.ids = h.ids[:0]
	h.keys = h.keys[:0]
}

func (h *Indexed) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}

func (h *Indexed) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !outranks(h.keys[i], h.ids[i], h.keys[p], h.ids[p]) {
			break
		}
		h.swap(p, i)
		i = p
	}
}

func (h *Indexed) down(i int) {
	n := len(h.ids)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && outranks(h.keys[l], h.ids[l], h.keys[largest], h.ids[largest]) {
			largest = l
		}
		if r < n && outranks(h.keys[r], h.ids[r], h.keys[largest], h.ids[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.swap(i, largest)
		i = largest
	}
}
