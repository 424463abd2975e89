package fairtree

import "math"

// Ranking is an indexed max-heap over live leaves ordered by decayed
// usage. The trick that makes it O(log n) per update instead of
// O(n log n) per epoch is the key: instead of the decayed usage
// itself (which changes for every node at every epoch), each leaf is
// keyed by the epoch-invariant normalized log-usage
//
//	key = ln(raw) − stamp·ln(decay)
//
// Uniform decay multiplies every usage by the same factor, which adds
// the same constant to every key — so the heap order never changes as
// time passes, and only the one leaf actually touched by a Record or
// death moves (one sift, O(log n)). A full-rescan oracle at 1M leaves
// pays O(n) per refresh; see BenchmarkRankingVsRescan.
type Ranking struct {
	ids []NodeID  // heap slots
	pos []int32   // NodeID → slot+1 (0 = absent)
	key []float64 // NodeID → normalized log-usage
}

// EnableRanking attaches a usage ranking to the tree. It must be
// called before any usage is recorded; updates are maintained
// incrementally from then on.
func (t *Tree) EnableRanking() *Ranking {
	if t.rank == nil {
		t.rank = &Ranking{}
	}
	return t.rank
}

// normKey computes the epoch-invariant heap key for a leaf. For decay
// 0 the stamp term is dropped (everything dies next epoch anyway, so
// cross-epoch order is moot); for decay 1, lnDecay is 0 and the key is
// exactly ln(raw).
func (t *Tree) normKey(id NodeID) float64 {
	return math.Log(t.raw[id]) - float64(t.stamp[id])*t.lnDecay
}

// Len returns the number of ranked leaves.
func (t *Tree) rankLen() int {
	if t.rank == nil {
		return 0
	}
	return len(t.rank.ids)
}

// Top returns the leaf with the highest decayed usage, or None.
func (t *Tree) Top() NodeID {
	if t.rankLen() == 0 {
		return None
	}
	return t.rank.ids[0]
}

// TopK appends the k heaviest leaves (highest decayed usage first)
// to dst and returns it. It is O(k log k) via a bounded frontier
// walk of the heap, not a full sort.
func (t *Tree) TopK(k int, dst []NodeID) []NodeID {
	r := t.rank
	if r == nil || len(r.ids) == 0 || k <= 0 {
		return dst
	}
	// Frontier of candidate heap slots, ordered by key descending.
	// Pop the best, emit it, push its children.
	frontier := []int32{0}
	for len(frontier) > 0 && k > 0 {
		best := 0
		for i := 1; i < len(frontier); i++ {
			a, b := frontier[i], frontier[best]
			ka, kb := r.key[r.ids[a]], r.key[r.ids[b]]
			if ka > kb || (ka == kb && r.ids[a] < r.ids[b]) {
				best = i
			}
		}
		slot := frontier[best]
		frontier[best] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		dst = append(dst, r.ids[slot])
		k--
		if l := 2*slot + 1; int(l) < len(r.ids) {
			frontier = append(frontier, l)
		}
		if rr := 2*slot + 2; int(rr) < len(r.ids) {
			frontier = append(frontier, rr)
		}
	}
	return dst
}

// update inserts or re-sifts a leaf after its raw usage changed.
func (r *Ranking) update(t *Tree, id NodeID) {
	for int(id) >= len(r.pos) {
		r.pos = append(r.pos, 0)
		r.key = append(r.key, 0)
	}
	k := t.normKey(id)
	if r.pos[id] == 0 {
		r.key[id] = k
		r.ids = append(r.ids, id)
		r.pos[id] = int32(len(r.ids))
		r.siftUp(len(r.ids) - 1)
		return
	}
	old := r.key[id]
	r.key[id] = k
	slot := int(r.pos[id]) - 1
	if k > old {
		r.siftUp(slot)
	} else if k < old {
		r.siftDown(slot)
	}
}

// remove deletes a leaf from the ranking (on death).
func (r *Ranking) remove(id NodeID) {
	if r == nil || int(id) >= len(r.pos) || r.pos[id] == 0 {
		return
	}
	slot := int(r.pos[id]) - 1
	last := len(r.ids) - 1
	r.swap(slot, last)
	r.ids = r.ids[:last]
	r.pos[id] = 0
	if slot < last {
		r.siftDown(slot)
		r.siftUp(slot)
	}
}

func (r *Ranking) higher(i, j int) bool {
	a, b := r.ids[i], r.ids[j]
	if r.key[a] != r.key[b] {
		return r.key[a] > r.key[b]
	}
	return a < b
}

func (r *Ranking) swap(i, j int) {
	r.ids[i], r.ids[j] = r.ids[j], r.ids[i]
	r.pos[r.ids[i]] = int32(i + 1)
	r.pos[r.ids[j]] = int32(j + 1)
}

func (r *Ranking) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !r.higher(i, p) {
			break
		}
		r.swap(i, p)
		i = p
	}
}

func (r *Ranking) siftDown(i int) {
	n := len(r.ids)
	for {
		l, rr := 2*i+1, 2*i+2
		s := i
		if l < n && r.higher(l, s) {
			s = l
		}
		if rr < n && r.higher(rr, s) {
			s = rr
		}
		if s == i {
			break
		}
		r.swap(i, s)
		i = s
	}
}
