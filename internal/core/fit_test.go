package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/job"
	"repro/internal/profile"
	"repro/internal/sim"
)

// checkFit requires the fit index to be what the table's rows give:
// every leaf the (least, wall) of the row at its position, or noRow
// where there is none, and every inner node the component-wise minimum
// of its children.
func (t *jobTable) checkFit() error {
	if t.fit == nil {
		if t.len() > 0 {
			return fmt.Errorf("%d rows and no fit index", t.len())
		}
		return nil
	}
	p := len(t.fit) / 2
	if t.head+cap(t.least) > p || cap(t.least) != cap(t.jobs) {
		return fmt.Errorf("fit index of %d leaves under columns of capacity %d/%d from %d", p, cap(t.least), cap(t.jobs), t.head)
	}
	base := t.leaf(0)
	for x := p; x < len(t.fit); x++ {
		want := noRow
		if i := x - base; i >= 0 && i < t.len() {
			if j := t.jobs[i]; t.least[i] != leastCores(j) || t.wall[i] != j.Walltime {
				return fmt.Errorf("row %d (%v): least %d / wall %v, the job's %d / %v", i, j.ID, t.least[i], t.wall[i], leastCores(j), j.Walltime)
			}
			want = fitNode{t.least[i], t.wall[i]}
		}
		if t.fit[x] != want {
			return fmt.Errorf("leaf %d (row %d) holds %v, want %v", x, x-base, t.fit[x], want)
		}
	}
	for x := p - 1; x >= 1; x-- {
		l, r := t.fit[2*x], t.fit[2*x+1]
		if want := (fitNode{min(l.cores, r.cores), min(l.wall, r.wall)}); t.fit[x] != want {
			return fmt.Errorf("node %d holds %v, the minimum of its children is %v", x, t.fit[x], want)
		}
	}
	return nil
}

// fitScan is nextFit's oracle: the per-row rule, row by row.
func fitScan(t *jobTable, i, hi int, st *startNow) int {
	for ; i < hi; i++ {
		if st.admits(fitNode{t.least[i], t.wall[i]}) {
			return i
		}
	}
	return hi
}

// randomStair returns a staircase at now as StartNowStair shapes one:
// steps after now at which free cores fall, possibly below zero.
func randomStair(rng *rand.Rand, now sim.Time) startNow {
	st := startNow{now: now, steps: []profile.Step{{T: now, Free: rng.Intn(52) - 2}}}
	for k := rng.Intn(6); k > 0; k-- {
		last := st.steps[len(st.steps)-1]
		st.steps = append(st.steps, profile.Step{T: last.T + sim.Duration(1+rng.Intn(200))*sim.Minute, Free: last.Free - 1 - rng.Intn(12)})
	}
	return st
}

// TestFitIndex drives the job table through random fills, repairs
// (extract + merge), extracts of started rows at the head and at the
// tail, and merges that outgrow the columns' capacity, and after every
// step requires the index to be what its rows give and nextFit to agree
// with a linear scan of the per-row rule for random staircases and row
// ranges.
func TestFitIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := DefaultWeights()
	now := 10 * sim.Hour
	nextID := 0
	newJob := func() *job.Job {
		nextID++
		j := mkQueued(nextID, "u", rng.Intn(49), sim.Duration(1+rng.Intn(600))*sim.Minute, sim.Time(rng.Intn(36000))*sim.Second)
		switch rng.Intn(8) {
		case 0:
			j.Walltime = sim.Forever
		case 1, 2:
			j.Class, j.MinCores = job.Moldable, rng.Intn(j.Cores+2)
		}
		return j
	}
	var tb jobTable
	var headCuts, tailCloses, reallocs int
	check := func(round int, step string) {
		t.Helper()
		if err := tb.checkFit(); err != nil {
			t.Fatalf("round %d after %s: %v", round, step, err)
		}
		n := tb.len()
		for q := 0; q < 20; q++ {
			st := randomStair(rng, now)
			i := rng.Intn(n + 1)
			hi := i + rng.Intn(n-i+1)
			if got, want := tb.nextFit(i, hi, &st), fitScan(&tb, i, hi, &st); got != want {
				t.Fatalf("round %d after %s: nextFit(%d, %d, %v) = %d, a scan gives %d", round, step, i, hi, st.steps, got, want)
			}
			if n > 0 && !st.admits(tb.fit[1]) && fitScan(&tb, 0, n, &st) < n {
				t.Fatalf("round %d after %s: the root %v rules out a row a scan admits (%v)", round, step, tb.fit[1], st.steps)
			}
		}
	}
	var queued []*job.Job
	for round := 0; round < 400; round++ {
		if round%25 == 0 {
			queued = queued[:0]
			for k := 1 + rng.Intn(600); k > 0; k-- {
				queued = append(queued, newJob())
			}
			tb.fill(queued, now, w, nil)
			check(round, "fill")
		}
		// A repair: some rows leave the queue and new submissions join
		// it; past the columns' capacity the merge reallocates them.
		var changed []*job.Job
		for k := rng.Intn(len(queued)/40 + 1); k > 0 && len(queued) > 0; k-- {
			j := queued[rng.Intn(len(queued))]
			j.State = job.Cancelled
			queued = without(queued, j)
			changed = append(changed, j)
		}
		for k := rng.Intn(len(queued)/10 + 4); k > 0; k-- {
			j := newJob()
			queued = append(queued, j)
			changed = append(changed, j)
		}
		c := cap(tb.least)
		if !tb.repair(nil, changed, now, w, nil) {
			tb.fill(queued, now, w, nil)
		} else if cap(tb.least) > c {
			reallocs++
		}
		check(round, "repair")
		// The rows a walk started leave the table: a run near the head
		// or near the tail, so both of extract's branches run.
		n := tb.len()
		if n == 0 {
			continue
		}
		lo, hi := 0, 1+rng.Intn(min(n, 12))
		if rng.Intn(2) == 0 {
			lo, hi = n-hi, n
		}
		var pos []int32
		for p := lo; p < hi; p++ {
			if rng.Intn(3) > 0 {
				pos = append(pos, int32(p))
				tb.jobs[p].State = job.Running
				queued = without(queued, tb.jobs[p])
			}
		}
		if len(pos) == 0 {
			continue
		}
		if first, last := int(pos[0]), int(pos[len(pos)-1]); last < n-first {
			headCuts++
		} else {
			tailCloses++
		}
		tb.extract(pos)
		check(round, "extract")
	}
	if headCuts == 0 || tailCloses == 0 || reallocs == 0 {
		t.Errorf("head cuts %d, tail closes %d, reallocations %d: want every path taken", headCuts, tailCloses, reallocs)
	}
	t.Logf("head cuts %d, tail closes %d, reallocations %d", headCuts, tailCloses, reallocs)
}

// TestStartNowStairIsFindSlot holds the staircase to the slot search it
// stands in for: on random profiles with releases, future holds, free
// cores held below zero and more steps than a segment holds, a request
// is admitted exactly when FindSlot starts it now — for requests of no
// cores, walls that end exactly on a step and walls that saturate.
func TestStartNowStairIsFindSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b profile.Builder
	var p profile.SegProfile
	var st startNow
	var deep, onStep, admitted, refused int
	for round := 0; round < 300; round++ {
		capacity := 1 + rng.Intn(64)
		start := sim.Time(rng.Intn(1000)) * sim.Second
		at := func() sim.Time { return start + sim.Time(rng.Intn(5000))*sim.Second }
		b.Reset(start, rng.Intn(capacity+1))
		for k := rng.Intn(120); k > 0; k-- {
			b.Release(at(), 1+rng.Intn(8))
		}
		b.BuildSegInto(&p)
		for k := rng.Intn(60); k > 0; k-- {
			s, end := at(), sim.Forever
			if rng.Intn(4) > 0 {
				end = s + sim.Duration(1+rng.Intn(3000))*sim.Second
			}
			p.AddHold(s, end, 1+rng.Intn(capacity))
		}
		steps := p.Steps()
		if len(steps) > 64 { // two segments' worth
			deep++
		}
		now := steps[rng.Intn(len(steps))].T
		if rng.Intn(2) == 0 {
			now = at()
		}
		st.read(&p, now)
		if st.steps[0] != (profile.Step{T: now, Free: p.FreeAt(now)}) {
			t.Fatalf("round %d: staircase %v opens off (now %v, %d free)", round, st.steps, now, p.FreeAt(now))
		}
		for q := 0; q < 200; q++ {
			cores := rng.Intn(capacity + 3)
			var wall sim.Duration
			switch rng.Intn(5) {
			case 0:
				// End exactly on a step of the profile at or after now.
				if s := steps[rng.Intn(len(steps))].T; s >= now {
					wall = s - now
					onStep++
				}
			case 1:
				wall = sim.Forever - now - sim.Duration(rng.Intn(2))
			case 2:
				wall = sim.Forever
			default:
				wall = sim.Duration(1+rng.Intn(6000)) * sim.Second
			}
			got := st.admits(fitNode{int32(cores), wall})
			if want := p.FindSlot(cores, wall, now) == now; got != want {
				t.Fatalf("round %d: %d cores for %v at %v: admitted %v, FindSlot starts now %v\nprofile %v\nstaircase %v",
					round, cores, wall, now, got, want, p.String(), st.steps)
			}
			if got {
				admitted++
			} else {
				refused++
			}
		}
	}
	if deep == 0 || onStep == 0 || admitted == 0 || refused == 0 {
		t.Errorf("profiles past two segments %d, walls on a step %d, admitted %d, refused %d: want every case hit", deep, onStep, admitted, refused)
	}
}

// TestFinalWalkJumpsToTheFit pins the final walk's prune: with 8 cores
// free and one reservation held, 5,000 rows of 16 cores and 8 narrow rows
// too long to end before the reservation are passed over, and the 4-core
// row behind them starts.
func TestFinalWalkJumpsToTheFit(t *testing.T) {
	rm := newTestRM(2, 8)
	rm.addRunning(&job.Job{ID: 1, Cred: job.Credentials{User: "r"}, Cores: 8, Walltime: sim.Hour})
	const wide, long = 5000, 8
	for i := 0; i < wide; i++ {
		rm.queued = append(rm.queued, mkQueued(2+i, "u", 16, sim.Hour, sim.Time(i)))
	}
	// Each is narrower than the last and no shorter than any before it,
	// so none rules out the next: free cores alone admit all of them.
	for i := 0; i < long; i++ {
		rm.queued = append(rm.queued, mkQueued(2+wide+i, "u", long-i, sim.Hour+sim.Duration(1+i)*sim.Minute, sim.Time(wide+i)))
	}
	fits := mkQueued(2+wide+long, "u", 4, 30*sim.Minute, sim.Time(wide+long))
	rm.queued = append(rm.queued, fits)
	cfg := config.Default()
	cfg.ReservationDepth = 1
	s := New(Options{Config: cfg}, 0)
	res := s.Iterate(0, rm)
	if len(res.Reservations) != 1 || len(res.Backfilled) != 1 || res.Backfilled[0] != fits {
		t.Fatalf("reserved %d, backfilled %v: want one reservation and the 4-core row started", len(res.Reservations), res.Backfilled)
	}
	// The pruned phase covers every row after the reserved one. All but
	// the 4-core row are passed over and that one starts, so no slot
	// search found a row not to start.
	if got := s.table.finalSkips; got != wide-1+long {
		t.Errorf("final walk passed over %d rows, want %d", got, wide-1+long)
	}
}
