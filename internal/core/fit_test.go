package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/job"
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
func fitScan(t *jobTable, i, hi, free int, tried *noFit) int {
	for ; i < hi; i++ {
		if tried.admits(fitNode{t.least[i], t.wall[i]}, free) {
			return i
		}
	}
	return hi
}

// TestFitIndex drives the job table through random fills, repairs
// (extract + merge), extracts of started rows at the head and at the
// tail, and merges that outgrow the columns' capacity, and after every
// step requires the index to be what its rows give and nextFit to agree
// with a linear scan of the per-row rule for random free-core counts,
// frontiers and row ranges.
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
			var tried noFit
			for k := rng.Intn(6); k > 0; k-- {
				tried.add(rng.Intn(50), sim.Duration(rng.Intn(700))*sim.Minute)
			}
			free := rng.Intn(52) - 2
			i := rng.Intn(n + 1)
			hi := i + rng.Intn(n-i+1)
			if got, want := tb.nextFit(i, hi, free, &tried), fitScan(&tb, i, hi, free, &tried); got != want {
				t.Fatalf("round %d after %s: nextFit(%d, %d, free %d, %+v) = %d, a scan gives %d", round, step, i, hi, free, tried, got, want)
			}
			if n > 0 && !tried.admits(tb.fit[1], free) && fitScan(&tb, 0, n, free, &tried) < n {
				t.Fatalf("round %d after %s: the root %v rules out a row a scan admits (free %d, %+v)", round, step, tb.fit[1], free, tried)
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

// TestFinalWalkJumpsToTheFit pins the final walk's prune: with 8 cores
// free and one reservation held, 5,000 rows of 16 cores are passed over
// without a slot search, and the 4-core row behind them starts.
func TestFinalWalkJumpsToTheFit(t *testing.T) {
	rm := newTestRM(2, 8)
	rm.addRunning(&job.Job{ID: 1, Cred: job.Credentials{User: "r"}, Cores: 8, Walltime: sim.Hour})
	const wide = 5000
	for i := 0; i < wide; i++ {
		rm.queued = append(rm.queued, mkQueued(2+i, "u", 16, sim.Hour, sim.Time(i)))
	}
	fits := mkQueued(2+wide, "u", 4, 30*sim.Minute, sim.Time(wide))
	rm.queued = append(rm.queued, fits)
	cfg := config.Default()
	cfg.ReservationDepth = 1
	s := New(Options{Config: cfg}, 0)
	res := s.Iterate(0, rm)
	defer s.Recycle(res)
	if len(res.Reservations) != 1 || len(res.Backfilled) != 1 || res.Backfilled[0] != fits {
		t.Fatalf("reserved %d, backfilled %v: want one reservation and the 4-core row started", len(res.Reservations), res.Backfilled)
	}
	// The pruned phase covers rows 1..5000; every row it did not pass
	// over it searched a slot for.
	if got := s.table.finalSkips; got != wide-1 {
		t.Errorf("final walk passed over %d rows, want %d", got, wide-1)
	}
	if searched := wide - int(s.table.finalSkips); searched > 2 {
		t.Errorf("pruned phase searched %d slots, want at most 2", searched)
	}
}
