package core

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/fairtree"
	"repro/internal/job"
	"repro/internal/sim"
)

// jobTable is the scheduler's struct-of-arrays snapshot of the eligible
// queue, sorted by priority. The iteration's hot loops (planning,
// delay measurement, the final start/backfill walk) read cores and
// walltimes from dense parallel slices instead of chasing 100k
// *job.Job pointers; the pointers stay as the stable API at the edges
// (StartJob, results, fairness bookkeeping). All storage is scratch
// reused across iterations.
//
// When the ResourceManager reports queue epochs (ChangeTracker) and
// the priority weights are time-invariant (no XFactor — pairwise
// priority differences then stay constant as jobs age), the sorted
// table lives across iterations and is kept current by repair: the rows
// the walk started are dropped where they stand, and whatever else moved
// — jobs the RM's change log names, jobs of entities whose fairshare
// usage changed — is pulled out, re-keyed and merged back. A full fill
// is the fallback, never a second way of getting the same order.
type jobTable struct {
	// Sorted (priority-descending) parallel arrays.
	jobs  []*job.Job
	cores []int32
	least []int32 // leastCores: a moldable row may shrink to MinCores
	wall  []sim.Duration
	sys   []int64
	mold  []bool
	// users holds each sorted position's interned share-tree leaf,
	// filled only in fairshare-ordered mode (fsOrder); it is what lets
	// repair find the jobs of a dirty entity with a flat int32 scan.
	users []int32

	// Sort scratch, indexed by pre-sort position.
	prio   []float64
	submit []sim.Time
	id     []job.ID
	perm   []int32

	fsOrder bool
	// nSys counts the rows carrying SystemPriority, for the
	// StrictSystemPriority gate.
	nSys     int
	fit      []fitNode // the fit index over (least, wall), fit.go
	head     int       // row 0's position in the backing arrays
	startNow startNow  // the pruned walks' staircase buffer, fit.go

	// Order-cache state: valid marks the sorted arrays reusable; they
	// reflect the RM's queue at queueEpoch and the share tree's change
	// log up to fsSerial.
	valid      bool
	queueEpoch uint64
	fsSerial   uint64

	// started lists, ascending, the rows this iteration's walk started;
	// they leave the table when the iteration ends.
	started []int32

	// repair scratch.
	dirtyBits []uint64
	rows      []tableRow

	// repairs and fills count the two ways the table is brought up to
	// date, so tests can assert the fast path actually engaged rather
	// than silently falling back to a full fill; whatIfSkips and
	// finalSkips count the rows the what-if and final walks passed over
	// without a slot search, for the same purpose.
	repairs, fills, whatIfSkips, finalSkips uint64
}

// tableRow is one row outside the table: pulled out by repair, or about
// to go in, with its sort key evaluated at the repair's instant.
type tableRow struct {
	j      *job.Job
	prio   float64
	submit sim.Time
	id     job.ID
	wall   sim.Duration
	sys    int64
	cores  int32
	least  int32
	user   int32
	mold   bool
}

func (t *jobTable) len() int { return len(t.jobs) }

// grow sizes every array to n for a fill; contents need not be kept.
func (t *jobTable) grow(n int) {
	t.setLen(0)
	t.extend(n)
	if cap(t.prio) < n {
		t.prio = make([]float64, n)
		t.submit = make([]sim.Time, n)
		t.id = make([]job.ID, n)
	}
	t.prio, t.submit, t.id = t.prio[:n], t.submit[:n], t.id[:n]
	t.perm = t.permBuf(n)
}

// setLen reslices the sorted columns to n rows within their capacity.
func (t *jobTable) setLen(n int) {
	t.jobs = t.jobs[:n]
	t.cores = t.cores[:n]
	t.least = t.least[:n]
	t.wall = t.wall[:n]
	t.sys = t.sys[:n]
	t.mold = t.mold[:n]
	t.users = t.users[:n]
}

// extend makes room for k more rows behind the present ones, which are
// kept. The columns are reallocated together, with headroom, so that
// they keep one common capacity and a run of single submissions does
// not copy the table once per job.
func (t *jobTable) extend(k int) {
	n := t.len() + k
	if cap(t.jobs) >= n {
		t.setLen(n)
		return
	}
	h, c := t.head, n+n/4+16
	t.jobs = regrow(t.jobs, n, c)
	t.cores = regrow(t.cores, n, c)
	t.least = regrow(t.least, n, c)
	t.wall = regrow(t.wall, n, c)
	t.sys = regrow(t.sys, n, c)
	t.mold = regrow(t.mold, n, c)
	t.users = regrow(t.users, n, c)
	t.head = 0
	if p := 1 << bits.Len(uint(c-1)); len(t.fit) < 2*p {
		t.fit = make([]fitNode, 2*p)
		for x := range t.fit {
			t.fit[x] = noRow
		}
		h = 0
	}
	t.refit(0, h+n-k) // the rows kept, moved down by h
}

func regrow[T any](s []T, n, c int) []T { return append(make([]T, 0, c), s...)[:n] }

// permBuf returns n entries of position scratch.
func (t *jobTable) permBuf(n int) []int32 {
	if cap(t.perm) < n {
		t.perm = make([]int32, n)
	}
	return t.perm[:n]
}

// fill loads the eligible jobs, computes priority keys, sorts a
// permutation, and gathers the hot fields into priority order. The
// input slice is read only — never retained or reordered.
func (t *jobTable) fill(eligible []*job.Job, now sim.Time, w PriorityWeights, fs *Fairshare) {
	n, end := len(eligible), t.head+t.len() // rows not refilled are cleared
	t.fills++
	t.grow(n)
	for i, j := range eligible {
		t.prio[i] = w.Priority(j, now, fs)
		t.submit[i] = j.SubmitTime
		t.id[i] = j.ID
		t.perm[i] = int32(i)
	}
	sort.Sort((*tableSorter)(t))
	t.fsOrder = fs != nil && w.Fairshare != 0 && w.QueueTime == 0 && w.XFactor == 0 && w.Resource == 0
	t.nSys = 0
	t.started = t.started[:0]
	for k, pi := range t.perm {
		t.setRow(k, t.rowOf(eligible[pi], fs))
	}
	t.refit(0, max(n, end-t.head))
}

// rowOf reads a queued job's columns (not its sort key).
func (t *jobTable) rowOf(j *job.Job, fs *Fairshare) tableRow {
	r := tableRow{j: j, cores: int32(j.Cores), least: leastCores(j), wall: j.Walltime, sys: j.SystemPriority, mold: j.Class == job.Moldable}
	if t.fsOrder {
		r.user = int32(fs.UserID(j.Cred.User))
	}
	return r
}

// rowAt reads row i back out of the table.
func (t *jobTable) rowAt(i int) tableRow {
	return tableRow{j: t.jobs[i], cores: t.cores[i], least: t.least[i], wall: t.wall[i], sys: t.sys[i], mold: t.mold[i], user: t.users[i]}
}

// leastCores is the smallest request j can start with: a moldable job
// may shrink to MinCores (moldToFit).
func leastCores(j *job.Job) int32 {
	if j.Class == job.Moldable && j.MinCores > 0 && j.MinCores < j.Cores {
		return int32(j.MinCores)
	}
	return int32(j.Cores)
}

// setRow writes a row that is entering the table.
func (t *jobTable) setRow(i int, r tableRow) {
	t.jobs[i] = r.j
	t.cores[i] = r.cores
	t.least[i] = r.least
	t.wall[i] = r.wall
	t.sys[i] = r.sys
	t.mold[i] = r.mold
	t.users[i] = r.user
	if r.sys > 0 {
		t.nSys++
	}
}

// repair brings the sorted table up to date without re-sorting the
// queue, given everything that can have moved since it was last
// current: changed, the jobs whose queue membership changed (the RM's
// change log — submitted, cancelled, started, requeued), and dirty, the
// share-tree leaves whose usage changed (fairshare-ordered mode only).
// The rows of both are pulled out, the jobs among them that are queued
// now are keyed afresh, sorted among themselves, and merged back at
// binary-searched insertion points: O(k log n) priority evaluations and
// block moves, against the O(n log n) re-sort.
//
// The result is byte-identical to a full fill because both are the same
// unique (priority, submit, id) total order over the same jobs at the
// same instant, and the rows that stay keep their relative order: a
// queued job's key inputs do not change while it is queued (a moldable
// reshape invalidates the table instead), pairwise differences of
// queue-time priorities are constant in time, and in fairshare-ordered
// mode — priority is sys·1e12 + w·factor(user) — uniform decay scales
// every entity's usage share by the same positive constant and entity
// births/deaths shift every level target equally, so only the dirty
// entities' jobs can move against the rest.
//
// Returns false, with the table untouched, when so much moved that a
// rebuild is cheaper; the caller falls back to fill.
func (t *jobTable) repair(dirty []fairtree.NodeID, changed []*job.Job, now sim.Time, w PriorityWeights, fs *Fairshare) bool {
	n := t.len()
	rows := t.rows[:0]
	defer func() {
		clear(rows)
		t.rows = rows[:0]
	}()
	// in collects, keyed afresh, what goes (back) in: the rows that are
	// queued now.
	in := func(r tableRow) {
		if r.j.State == job.Queued {
			r.prio, r.submit, r.id = w.Priority(r.j, now, fs), r.j.SubmitTime, r.j.ID
			rows = append(rows, r)
		}
	}
	if len(dirty) > 0 && n > 0 {
		pos := t.dirtyRows(dirty)
		if (len(pos)+len(changed))*8 > n {
			return false
		}
		for _, p := range pos {
			in(t.rowAt(int(p)))
		}
		t.extract(pos)
	} else if len(changed)*8 > n {
		return false
	}
	// With the dirty rows gone every row left sorts consistently under
	// the current keys, so a changed job's row — if it has one — is
	// where its key says.
	pos := t.permBuf(len(changed))[:0]
	for _, j := range changed {
		i := t.lowerBound(0, t.len(), w.Priority(j, now, fs), j.SubmitTime, j.ID, now, w, fs)
		if i < t.len() && t.jobs[i] == j {
			pos = append(pos, int32(i))
		}
		in(t.rowOf(j, fs))
	}
	slices.Sort(pos)
	t.extract(slices.Compact(pos))
	// A job named twice, or dirty and named, goes in once.
	slices.SortFunc(rows, func(a, b tableRow) int {
		if rowBefore(a.prio, a.submit, a.id, b.prio, b.submit, b.id) {
			return -1
		}
		if a.id == b.id {
			return 0
		}
		return 1
	})
	t.merge(slices.CompactFunc(rows, func(a, b tableRow) bool { return a.id == b.id }), now, w, fs)
	return true
}

// dirtyRows returns, ascending in position scratch, the rows whose
// share-tree leaf is in dirty.
func (t *jobTable) dirtyRows(dirty []fairtree.NodeID) []int32 {
	maxID := fairtree.NodeID(0)
	for _, d := range dirty {
		if d > maxID {
			maxID = d
		}
	}
	words := int(maxID)/64 + 1
	if cap(t.dirtyBits) < words {
		t.dirtyBits = make([]uint64, words)
	} else {
		t.dirtyBits = t.dirtyBits[:words]
		clear(t.dirtyBits)
	}
	for _, d := range dirty {
		if d > 0 {
			t.dirtyBits[int(d)/64] |= 1 << (uint32(d) % 64)
		}
	}
	pos := t.permBuf(t.len())
	k := 0
	for i, u := range t.users {
		if u >= 0 && fairtree.NodeID(u) <= maxID && t.dirtyBits[u/64]&(1<<(uint32(u)%64)) != 0 {
			pos[k] = int32(i)
			k++
		}
	}
	return pos[:k]
}

// extract removes the rows at the given ascending positions and keeps
// the order of the rest. Whichever side of the table is shorter moves:
// the rows a walk starts sit at the head of a deep queue, and dropping
// them shifts the few rows in front of them, not the queue behind.
func (t *jobTable) extract(pos []int32) {
	k, n := len(pos), t.len()
	if k == 0 {
		return
	}
	for _, p := range pos {
		if t.sys[p] > 0 {
			t.nSys--
		}
	}
	first, last := int(pos[0]), int(pos[k-1])
	if last < n-first {
		// Close the gaps towards the back, then cut the head off.
		wi := last + 1
		for x := k - 1; x >= 0; x-- {
			start := 0
			if x > 0 {
				start = int(pos[x-1]) + 1
			}
			if cnt := int(pos[x]) - start; cnt > 0 {
				wi -= cnt
				t.moveRows(wi, start, cnt)
			}
		}
		clear(t.jobs[:k])
		t.jobs, t.cores, t.least, t.wall = t.jobs[k:], t.cores[k:], t.least[k:], t.wall[k:]
		t.sys, t.mold, t.users = t.sys[k:], t.mold[k:], t.users[k:]
		t.head += k
		t.refit(-k, last+1-k)
		return
	}
	wi := first
	for x := 0; x < k; x++ {
		src, end := int(pos[x])+1, n
		if x+1 < k {
			end = int(pos[x+1])
		}
		if cnt := end - src; cnt > 0 {
			t.moveRows(wi, src, cnt)
			wi += cnt
		}
	}
	clear(t.jobs[n-k:])
	t.setLen(n - k)
	t.refit(first, n)
}

// lowerBound returns the first row in [lo, hi) that does not sort
// before the key, the rows' priorities evaluated on the fly.
func (t *jobTable) lowerBound(lo, hi int, prio float64, submit sim.Time, id job.ID, now sim.Time, w PriorityWeights, fs *Fairshare) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		pj := t.jobs[mid]
		if rowBefore(w.Priority(pj, now, fs), pj.SubmitTime, pj.ID, prio, submit, id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// merge inserts rows, sorted by key and absent from the table, each at
// its place.
func (t *jobTable) merge(rows []tableRow, now sim.Time, w PriorityWeights, fs *Fairshare) {
	k, m := len(rows), t.len()
	if k == 0 {
		return
	}
	ins := t.permBuf(k)
	for x, r := range rows {
		lo := 0
		if x > 0 {
			lo = int(ins[x-1]) // rows are sorted: points are non-decreasing
		}
		ins[x] = int32(t.lowerBound(lo, m, r.prio, r.submit, r.id, now, w, fs))
	}
	// Single backward merge: shift the resident blocks right and drop
	// each new row into its slot. Go's copy is memmove, so the
	// overlapping block shifts are safe.
	t.extend(k)
	wi := m + k - 1
	uj := m - 1
	for x := k - 1; x >= 0; x-- {
		if cnt := uj - int(ins[x]) + 1; cnt > 0 {
			t.moveRows(wi-cnt+1, int(ins[x]), cnt)
			wi -= cnt
			uj = int(ins[x]) - 1
		}
		t.setRow(wi, rows[x])
		wi--
	}
	t.refit(int(ins[0]), m+k)
}

// rowBefore is the table's total sort order: priority descending,
// then submit time, then ID (unique).
func rowBefore(pa float64, sa sim.Time, ia job.ID, pb float64, sb sim.Time, ib job.ID) bool {
	if pa != pb {
		return pa > pb
	}
	if sa != sb {
		return sa < sb
	}
	return ia < ib
}

// moveRows block-copies cnt rows from src to dst in every column.
func (t *jobTable) moveRows(dst, src, cnt int) {
	copy(t.jobs[dst:dst+cnt], t.jobs[src:src+cnt])
	copy(t.cores[dst:dst+cnt], t.cores[src:src+cnt])
	copy(t.least[dst:dst+cnt], t.least[src:src+cnt])
	copy(t.wall[dst:dst+cnt], t.wall[src:src+cnt])
	copy(t.sys[dst:dst+cnt], t.sys[src:src+cnt])
	copy(t.mold[dst:dst+cnt], t.mold[src:src+cnt])
	copy(t.users[dst:dst+cnt], t.users[src:src+cnt])
}

// tableSorter sorts the permutation by descending priority with the
// same total order as SortByPriority (submit time, then ID, break
// ties), so the unstable sort is deterministic and value-identical to
// the stable slice sort it replaces.
type tableSorter jobTable

func (t *tableSorter) Len() int { return len(t.perm) }

func (t *tableSorter) Swap(a, b int) { t.perm[a], t.perm[b] = t.perm[b], t.perm[a] }

func (t *tableSorter) Less(a, b int) bool {
	pa, pb := t.perm[a], t.perm[b]
	return rowBefore(t.prio[pa], t.submit[pa], t.id[pa], t.prio[pb], t.submit[pb], t.id[pb])
}
