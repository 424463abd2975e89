// Segmented availability profile. The flat Profile stores its steps in
// one slice, which makes every query a linear sweep and every clone a
// single memcpy — fine at testbed scale, but at 4096 nodes the profile
// carries thousands of boundaries and FindSlot dominates the iteration
// when 100k queued jobs each probe it. SegProfile keeps the same
// piecewise-constant semantics but chunks the steps into fixed-size
// segments, linked by index in one plain slice, with per-segment
// min/max aggregates:
//
//   - FindSlot/MinFree skip whole segments that are uniformly feasible
//     (min ≥ cores) or uniformly infeasible (max < cores), so a probe
//     costs O(segments) instead of O(steps) in the common case;
//   - boundary insertion shifts at most one segment (with an O(segCap)
//     local split when full) instead of memmoving the whole step list;
//   - clones for what-if planning copy the segment slice wholesale —
//     still one memcpy, no pointer graph.
//
// Every operation is defined to be value-identical to the flat Profile:
// the differential test in segprof_test.go drives both implementations
// through random op sequences and requires equal results, and the
// scheduler's decision traces (Table II, fig8/fig9) are the end-to-end
// oracle.
package profile

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// segCap is the number of steps per segment. 32 keeps a segment at
// ~400 bytes (six cache lines) and makes splits cheap, while still
// amortizing the per-segment skip checks over enough steps to win.
const segCap = 32

// segment is one chunk of consecutive steps plus aggregates. Segments
// link through indices, never pointers, so a profile clone is a flat
// copy of the slice.
type segment struct {
	t    [segCap]sim.Time
	free [segCap]int32
	next int32 // index of the next segment; -1 terminates
	n    int32 // live steps in this segment (≥ 1)
	min  int32 // min of free[0..n)
	max  int32 // max of free[0..n)
}

// SegProfile is a piecewise-constant map from time to free cores,
// equivalent to Profile but segmented for scale. The zero value is not
// usable; call NewSeg or Builder.BuildSegInto.
type SegProfile struct {
	segs []segment // the chain starts at segs[0]
}

// NewSeg creates a segmented profile with freeNow cores available from
// time now on.
func NewSeg(now sim.Time, freeNow int) *SegProfile {
	p := &SegProfile{}
	p.reset(now, int32(freeNow))
	return p
}

// reset reinitializes the profile to a single step, keeping storage.
func (p *SegProfile) reset(now sim.Time, freeNow int32) {
	p.segs = p.segs[:0]
	p.alloc()
	seg := &p.segs[0]
	seg.next = -1
	seg.n = 1
	seg.t[0] = now
	seg.free[0] = freeNow
	seg.min, seg.max = freeNow, freeNow
}

// alloc appends a segment and returns its index. The append may move
// the slice: a *segment taken before the call is stale after it.
func (p *SegProfile) alloc() int32 {
	p.segs = append(p.segs, segment{})
	return int32(len(p.segs) - 1)
}

// CloneInto copies p into dst, reusing dst's storage — the what-if
// overlay path. A nil dst allocates a fresh profile.
func (p *SegProfile) CloneInto(dst *SegProfile) *SegProfile {
	if dst == nil {
		dst = &SegProfile{}
	}
	dst.segs = append(dst.segs[:0], p.segs...)
	return dst
}

// Start returns the first instant the profile covers.
func (p *SegProfile) Start() sim.Time { return p.segs[0].t[0] }

// NumSteps returns the total number of step boundaries.
func (p *SegProfile) NumSteps() int {
	n := 0
	for h := int32(0); h >= 0; h = p.segs[h].next {
		n += int(p.segs[h].n)
	}
	return n
}

// Steps returns a copy of the steps, for inspection and tests.
func (p *SegProfile) Steps() []Step {
	out := make([]Step, 0, p.NumSteps())
	for h := int32(0); h >= 0; {
		seg := &p.segs[h]
		for k := 0; k < int(seg.n); k++ {
			out = append(out, Step{T: seg.t[k], Free: int(seg.free[k])})
		}
		h = seg.next
	}
	return out
}

// locate returns the segment containing t (the last segment whose
// first step is ≤ t, or the head when t precedes the profile) and the
// index of the last step with time ≤ t within it (-1 when t precedes
// even the head's first step).
func (p *SegProfile) locate(t sim.Time) (int32, int) {
	h := int32(0)
	for {
		seg := &p.segs[h]
		if seg.next < 0 || p.segs[seg.next].t[0] > t {
			break
		}
		h = seg.next
	}
	seg := &p.segs[h]
	i := int(seg.n) - 1
	for i >= 0 && seg.t[i] > t {
		i--
	}
	return h, i
}

// FreeAt returns the free cores at time t; times before the profile
// start report the initial value.
func (p *SegProfile) FreeAt(t sim.Time) int {
	h, i := p.locate(t)
	seg := &p.segs[h]
	if i < 0 {
		return int(seg.free[0])
	}
	return int(seg.free[i])
}

// recomputeAgg rebuilds a segment's min/max from its live steps.
func recomputeAgg(seg *segment) {
	mn, mx := seg.free[0], seg.free[0]
	for k := 1; k < int(seg.n); k++ {
		if seg.free[k] < mn {
			mn = seg.free[k]
		}
		if seg.free[k] > mx {
			mx = seg.free[k]
		}
	}
	seg.min, seg.max = mn, mx
}

// split divides a full segment in half, appending the upper half and
// relinking — the local alternative to the flat profile's whole-slice
// memmove.
func (p *SegProfile) split(h int32) {
	nh := p.alloc() // may move the slice: take pointers after
	seg := &p.segs[h]
	s2 := &p.segs[nh]
	const half = segCap / 2
	copy(s2.t[:half], seg.t[half:])
	copy(s2.free[:half], seg.free[half:])
	s2.n, seg.n = half, half
	s2.next = seg.next
	seg.next = nh
	recomputeAgg(seg)
	recomputeAgg(s2)
}

// ensureBoundary inserts a step boundary at t (splitting the step
// containing it) and returns its segment handle and index.
func (p *SegProfile) ensureBoundary(t sim.Time) (int32, int) {
	h, i := p.locate(t)
	seg := &p.segs[h]
	if i >= 0 && seg.t[i] == t {
		return h, i
	}
	var free int32
	if i < 0 {
		free = seg.free[0]
	} else {
		free = seg.free[i]
	}
	pos := i + 1
	if int(seg.n) == segCap {
		p.split(h)
		seg = &p.segs[h]
		if pos > int(seg.n) {
			pos -= int(seg.n)
			h = seg.next
			seg = &p.segs[h]
		}
	}
	for k := int(seg.n); k > pos; k-- {
		seg.t[k] = seg.t[k-1]
		seg.free[k] = seg.free[k-1]
	}
	seg.t[pos] = t
	seg.free[pos] = free
	seg.n++
	if free < seg.min {
		seg.min = free
	}
	if free > seg.max {
		seg.max = free
	}
	return h, pos
}

// AddRelease increases capacity by cores from time t onward.
func (p *SegProfile) AddRelease(t sim.Time, cores int) {
	if cores == 0 {
		return
	}
	c := int32(cores)
	h, i := p.ensureBoundary(t)
	for h >= 0 {
		seg := &p.segs[h]
		n := int(seg.n)
		for k := i; k < n; k++ {
			seg.free[k] += c
		}
		if i == 0 {
			seg.min += c
			seg.max += c
		} else {
			recomputeAgg(seg)
		}
		h = seg.next
		i = 0
	}
}

// AddHold decreases capacity by cores during [start, end); end may be
// sim.Forever. Negative capacity is legal transiently in what-if
// planning, exactly as with the flat Profile.
func (p *SegProfile) AddHold(start, end sim.Time, cores int) {
	if cores == 0 || end <= start {
		return
	}
	if end < sim.Forever {
		p.ensureBoundary(end)
	}
	h, i := p.ensureBoundary(start)
	c := int32(cores)
	for h >= 0 {
		seg := &p.segs[h]
		n := int(seg.n)
		if i == 0 && seg.t[n-1] < end {
			// Every step in the segment is inside the hold.
			for k := 0; k < n; k++ {
				seg.free[k] -= c
			}
			seg.min -= c
			seg.max -= c
		} else {
			done := false
			for k := i; k < n; k++ {
				if seg.t[k] >= end {
					done = true
					break
				}
				seg.free[k] -= c
			}
			recomputeAgg(seg)
			if done {
				return
			}
		}
		h = seg.next
		i = 0
	}
}

// MinFree returns the minimum free capacity over [start, end).
func (p *SegProfile) MinFree(start, end sim.Time) int {
	if end <= start {
		return p.FreeAt(start)
	}
	h, i := p.locate(start)
	seg := &p.segs[h]
	var min int32
	if i < 0 {
		min = seg.free[0]
	} else {
		min = seg.free[i]
	}
	for k := i + 1; k < int(seg.n); k++ {
		if seg.t[k] >= end {
			return int(min)
		}
		if seg.free[k] < min {
			min = seg.free[k]
		}
	}
	for nh := seg.next; nh >= 0; {
		s2 := &p.segs[nh]
		if s2.t[0] >= end {
			break
		}
		if s2.t[int(s2.n)-1] < end {
			// Whole segment inside the window: the aggregate answers.
			if s2.min < min {
				min = s2.min
			}
		} else {
			for k := 0; k < int(s2.n); k++ {
				if s2.t[k] >= end {
					break
				}
				if s2.free[k] < min {
					min = s2.free[k]
				}
			}
			break
		}
		nh = s2.next
	}
	return int(min)
}

// StartNowStair appends to dst, and returns, the steps from now at which
// the running minimum of free cores falls: (now, FreeAt(now)) first,
// then each later step that holds fewer cores than every one before it.
// It is MinFree(now, ·) as a staircase: for now ≥ Start, a request of
// cores > 0 and dur starts now — FindSlot(cores, dur, now) == now —
// exactly when cores ≤ the Free of the last entry whose T is before
// satAdd(now, dur), or of the first when none is. A segment whose min
// is not below the running minimum is skipped whole.
func (p *SegProfile) StartNowStair(now sim.Time, dst []Step) []Step {
	h, i := p.locate(now)
	seg := &p.segs[h]
	m := seg.free[max(i, 0)]
	dst = append(dst, Step{T: now, Free: int(m)})
	for k := i + 1; ; k = 0 {
		for ; k < int(seg.n); k++ {
			if seg.free[k] < m {
				m = seg.free[k]
				dst = append(dst, Step{T: seg.t[k], Free: int(m)})
			}
		}
		for h = seg.next; h >= 0 && p.segs[h].min >= m; {
			h = p.segs[h].next
		}
		if h < 0 {
			return dst
		}
		seg = &p.segs[h]
	}
}

// FindSlot returns the earliest time ≥ earliest at which cores cores
// are continuously free for dur, or sim.Forever. Semantics match
// Profile.FindSlot exactly; the sweep skips whole segments via the
// min/max aggregates. Deferring the "run long enough" check to the
// next segment entry is sound because the candidate start does not
// change while the run stays feasible — only its detection point moves.
func (p *SegProfile) FindSlot(cores int, dur sim.Duration, earliest sim.Time) sim.Time {
	if cores <= 0 {
		return earliest
	}
	if earliest < p.Start() {
		earliest = p.Start()
	}
	c := int32(cores)
	h, i := p.locate(earliest)
	seg := &p.segs[h]
	var start sim.Time
	ok := false
	if seg.free[i] >= c {
		start, ok = earliest, true
	}
	for j := i + 1; j < int(seg.n); j++ {
		if ok && satAdd(start, dur) <= seg.t[j] {
			return start
		}
		if seg.free[j] >= c {
			if !ok {
				start, ok = seg.t[j], true
			}
		} else {
			ok = false
		}
	}
	for nh := seg.next; nh >= 0; {
		s2 := &p.segs[nh]
		if ok && satAdd(start, dur) <= s2.t[0] {
			return start
		}
		switch {
		case s2.min >= c:
			// Uniformly feasible: the run continues (or starts) here.
			if !ok {
				start, ok = s2.t[0], true
			}
		case s2.max < c:
			// Uniformly infeasible: any run dies at the first step.
			ok = false
		default:
			for j := 0; j < int(s2.n); j++ {
				if ok && satAdd(start, dur) <= s2.t[j] {
					return start
				}
				if s2.free[j] >= c {
					if !ok {
						start, ok = s2.t[j], true
					}
				} else {
					ok = false
				}
			}
		}
		nh = s2.next
	}
	if ok {
		return start
	}
	return sim.Forever
}

// String renders the profile for debugging, same format as Profile.
func (p *SegProfile) String() string {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	for h := int32(0); h >= 0; {
		seg := &p.segs[h]
		for k := 0; k < int(seg.n); k++ {
			if !first {
				b.WriteByte(' ')
			}
			first = false
			fmt.Fprintf(&b, "%s→%d", sim.FormatTime(seg.t[k]), seg.free[k])
		}
		h = seg.next
	}
	b.WriteByte(']')
	return b.String()
}

// CheckInvariants verifies segment structure: strictly increasing step
// times across the whole chain, populated segments, and aggregates
// consistent with the steps they summarize.
func (p *SegProfile) CheckInvariants() error {
	seen := 0
	var prev sim.Time
	first := true
	for h := int32(0); h >= 0; {
		seg := &p.segs[h]
		if seg.n < 1 || seg.n > segCap {
			return fmt.Errorf("segprofile: segment with %d steps", seg.n)
		}
		mn, mx := seg.free[0], seg.free[0]
		for k := 0; k < int(seg.n); k++ {
			if !first && seg.t[k] <= prev {
				return fmt.Errorf("segprofile: non-increasing step times at %s", sim.FormatTime(seg.t[k]))
			}
			prev, first = seg.t[k], false
			if seg.free[k] < mn {
				mn = seg.free[k]
			}
			if seg.free[k] > mx {
				mx = seg.free[k]
			}
		}
		if mn != seg.min || mx != seg.max {
			return fmt.Errorf("segprofile: stale aggregates (min %d/%d, max %d/%d)", seg.min, mn, seg.max, mx)
		}
		seen += int(seg.n)
		if seen > len(p.segs)*segCap {
			return fmt.Errorf("segprofile: segment chain cycle")
		}
		h = seg.next
	}
	if seen == 0 {
		return fmt.Errorf("segprofile: no steps")
	}
	return nil
}

// BuildSegInto materializes the accumulated deltas into dst, reusing
// its storage, and returns dst. The result is step-for-step identical
// to BuildInto on a flat Profile.
func (b *Builder) BuildSegInto(dst *SegProfile) *SegProfile {
	sortDeltas(b.deltas)
	dst.reset(b.base, int32(b.baseFree))
	h := int32(0)
	seg := &dst.segs[h]
	free := int32(b.baseFree)
	for i := 0; i < len(b.deltas); {
		t := b.deltas[i].t
		for ; i < len(b.deltas) && b.deltas[i].t == t; i++ {
			free += int32(b.deltas[i].d)
		}
		if int(seg.n) == segCap {
			nh := dst.alloc() // may move the slice: re-fetch seg
			recomputeAgg(&dst.segs[h])
			dst.segs[h].next = nh
			h = nh
			seg = &dst.segs[h]
			seg.next = -1
			seg.n = 0
		}
		seg.t[seg.n] = t
		seg.free[seg.n] = free
		seg.n++
	}
	recomputeAgg(seg)
	return dst
}
