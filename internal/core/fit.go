package core

import (
	"math"

	"repro/internal/profile"
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

// nextFit returns the first row in [i, hi) that st admits for a start
// now, or hi. It walks the tree left to right and descends only into
// nodes st admits: one it refuses rules out every row under it, and
// goes on doing so while the walk only takes capacity away, so the rows
// before i need no second look. Climbing past the root leaves x = 1 one
// level above it, where x<<h is past every leaf.
func (t *jobTable) nextFit(i, hi int, st *startNow) int {
	base := t.leaf(0)
	x, h := base+i, 0 // node x at height h covers the leaves from x<<h
	for x<<h < base+hi {
		if st.admits(t.fit[x]) {
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

// startNow is a pruned walk's start-now staircase, read off its profile
// (SegProfile.StartNowStair): the cores free at now for the whole of a
// walltime, which only fall as the walltime grows. A row of cores > 0
// starts now exactly when it is no wider than that for its walltime, so
// at a leaf the test is FindSlot's answer; a node, no wider and no
// longer than any row under it, admits whenever one of them does.
type startNow struct {
	now   sim.Time
	steps []profile.Step
}

// read rebuilds the staircase from p at now, reusing its storage.
func (s *startNow) read(p *profile.SegProfile, now sim.Time) {
	s.now, s.steps = now, p.StartNowStair(now, s.steps[:0])
}

// admits reports whether a row bounded by n may start now: no wider
// than the Free of the last step before its walltime ends. A row of no
// cores fits even a profile held past its capacity.
func (s *startNow) admits(n fitNode) bool {
	end := holdEnd(s.now, n.wall)
	lo, hi := 1, len(s.steps) // steps[0] is at now, before any end
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s.steps[m].T < end {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return n.cores <= 0 || int(n.cores) <= s.steps[lo-1].Free
}
