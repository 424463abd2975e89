// Batch profile construction. Building a profile by repeated
// AddRelease/AddHold pays an O(n) memmove per boundary insertion —
// O(n²) for the per-iteration rebuild from hundreds of running jobs.
// The Builder instead collects all capacity deltas, sorts them once by
// time with a typed (non-reflective) sort, and materializes the step
// list by a single prefix-sum pass: O(n log n) to build, with no
// allocation when rebuilding into reused storage.
package profile

import (
	"cmp"
	"slices"

	"repro/internal/sim"
)

// delta is one capacity change: d cores become free (or taken, when
// negative) at time t.
type delta struct {
	t sim.Time
	d int
}

// Builder accumulates release and hold deltas and materializes them
// into a Profile in one pass. A Builder is reusable via Reset; it is
// not safe for concurrent use.
type Builder struct {
	base     sim.Time
	baseFree int
	deltas   []delta
}

// NewBuilder starts a batch build: freeNow cores available from base on.
func NewBuilder(base sim.Time, freeNow int) *Builder {
	b := &Builder{}
	b.Reset(base, freeNow)
	return b
}

// Reset clears the builder for a new batch build, keeping its storage.
func (b *Builder) Reset(base sim.Time, freeNow int) {
	b.base, b.baseFree, b.deltas = base, freeNow, b.deltas[:0]
}

// Release adds cores to the pool from time t onward. Times at or
// before the base fold into the initial capacity.
func (b *Builder) Release(t sim.Time, cores int) {
	if cores == 0 {
		return
	}
	if t <= b.base {
		b.baseFree += cores
		return
	}
	b.deltas = append(b.deltas, delta{t, cores})
}

// Hold removes cores from the pool during [start, end); end may be
// sim.Forever. Segments before the base are clipped away.
func (b *Builder) Hold(start, end sim.Time, cores int) {
	if cores == 0 || end <= start {
		return
	}
	b.Release(start, -cores)
	if end < sim.Forever {
		b.Release(end, cores)
	}
}

// Build materializes the accumulated deltas into a fresh Profile.
func (b *Builder) Build() *Profile {
	return b.BuildInto(&Profile{})
}

// sortDeltas orders deltas by time; equal times keep any order, since
// same-time deltas fold into one step.
func sortDeltas(ds []delta) {
	slices.SortFunc(ds, func(a, b delta) int { return cmp.Compare(a.t, b.t) })
}

// BuildInto materializes into dst, reusing its step storage, and
// returns dst. The result is identical to applying every delta through
// AddRelease/AddHold in any order.
func (b *Builder) BuildInto(dst *Profile) *Profile {
	sortDeltas(b.deltas)
	steps := dst.steps[:0]
	if cap(steps) < len(b.deltas)+1 {
		steps = make([]Step, 0, len(b.deltas)+1)
	}
	steps = append(steps, Step{T: b.base, Free: b.baseFree})
	free := b.baseFree
	for i := 0; i < len(b.deltas); {
		t := b.deltas[i].t
		for ; i < len(b.deltas) && b.deltas[i].t == t; i++ {
			free += b.deltas[i].d
		}
		steps = append(steps, Step{T: t, Free: free})
	}
	dst.steps = steps
	dst.mutations = 1 // merged boundaries may exist; first Compact scans
	return dst
}
