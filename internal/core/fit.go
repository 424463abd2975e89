package core

import (
	"math"

	"repro/internal/sim"
)

// The fit index (jobTable.fit) is a min-tree over the positions of the
// table's backing arrays: fit[1] is the root, node x has children 2x and
// 2x+1, and the bottom level holds one leaf per backing position, so a
// head cut moves none. A row's leaf holds the fewest cores it may start
// with and its walltime; an inner node holds the component-wise minimum
// of its children, which bounds every row under it from below.
type fitNode struct {
	cores int32
	wall  sim.Duration
}

// noRow is the leaf of a position that holds no row; nothing admits it.
var noRow = fitNode{math.MaxInt32, sim.Forever}

// leaf returns the index of row i's leaf.
func (t *jobTable) leaf(i int) int { return len(t.fit)/2 + t.head + i }

// refit brings the leaves of rows [lo, hi) and their ancestors up to
// date in one bottom-up pass, O(hi-lo + log n). A row outside the table
// reads as noRow, so lo may reach back over a head just cut and hi past
// a tail just closed.
func (t *jobTable) refit(lo, hi int) {
	a, b := t.leaf(lo), t.leaf(hi)
	for x := a; x < b; x++ {
		t.fit[x] = noRow
		if i := lo + x - a; i >= 0 && i < t.len() {
			t.fit[x] = fitNode{t.least[i], t.wall[i]}
		}
	}
	for a, b = a/2, (b-1)/2; a > 0; a, b = a/2, b/2 {
		for x := a; x <= b; x++ {
			l, r := t.fit[2*x], t.fit[2*x+1]
			t.fit[x] = fitNode{min(l.cores, r.cores), min(l.wall, r.wall)}
		}
	}
}

// nextFit returns the first row in [i, hi) that free cores and tried do
// not rule out for a start now, or hi. It walks the tree left to right
// and descends only into nodes that admit: one that does not rules out
// every row under it, and goes on doing so while the walk only takes
// capacity away, so the rows before i need no second look. Climbing past
// the root leaves x = 1 one level above it, where x<<h is past every leaf.
func (t *jobTable) nextFit(i, hi, free int, tried *noFit) int {
	base := t.leaf(0)
	x, h := base+i, 0 // node x at height h covers the leaves from x<<h
	for x<<h < base+hi {
		if tried.admits(t.fit[x], free) {
			if h == 0 {
				return x - base
			}
			x, h = 2*x, h-1
			continue
		}
		for x&1 == 1 {
			x, h = x>>1, h+1
		}
		x++
	}
	return hi
}

// noFit is the pruned walk's memory of requests it found not to start
// now: the smallest few, since one that is at least as wide and at least
// as long as any of them cannot start either while the profile only
// loses capacity.
type noFit struct {
	n   int
	req [4]struct {
		cores int
		wall  sim.Duration
	}
}

func (f *noFit) rulesOut(cores int, wall sim.Duration) bool {
	for _, r := range f.req[:f.n] {
		if r.cores <= cores && r.wall <= wall {
			return true
		}
	}
	return false
}

// admits reports whether a row bounded by n may still start now with
// free cores free: no wider than free, and not ruled out. A row of no
// cores fits even a profile held past its capacity.
func (f *noFit) admits(n fitNode, free int) bool {
	return int(n.cores) <= max(free, 0) && !f.rulesOut(int(n.cores), n.wall)
}

// add records a request rulesOut did not cover: in place of one it
// covers in turn, else in a free slot, else not at all.
func (f *noFit) add(cores int, wall sim.Duration) {
	k := f.n
	for i, r := range f.req[:f.n] {
		if cores <= r.cores && wall <= r.wall {
			k = i
			break
		}
	}
	if k == len(f.req) {
		return
	}
	f.req[k].cores, f.req[k].wall = cores, wall
	if k == f.n {
		f.n++
	}
}
