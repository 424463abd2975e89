package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/profile"
	"repro/internal/sim"
)

func planJob(id int, cores int, wall sim.Duration) *job.Job {
	return &job.Job{ID: job.ID(id), Cores: cores, Walltime: wall, State: job.Queued}
}

func TestBuildProfile(t *testing.T) {
	cl := cluster.New(2, 8)
	a := &job.Job{ID: 1, Cores: 8, Walltime: sim.Hour, StartTime: 0, State: job.Running}
	cl.Allocate(1, 8)
	b := &job.Job{ID: 2, Cores: 4, DynCores: 2, Walltime: 2 * sim.Hour, StartTime: 0, State: job.Running}
	cl.Allocate(2, 6)
	p := buildProfile(30*sim.Minute, cl, []*job.Job{a, b})
	if got := p.FreeAt(30 * sim.Minute); got != 2 {
		t.Errorf("free now = %d", got)
	}
	// a releases 8 at its walltime end (1h).
	if got := p.FreeAt(sim.Hour); got != 10 {
		t.Errorf("free at 1h = %d", got)
	}
	// b releases base+dyn (6) at 2h.
	if got := p.FreeAt(2 * sim.Hour); got != 16 {
		t.Errorf("free at 2h = %d", got)
	}
}

func TestBuildProfileOverrunJob(t *testing.T) {
	// A job past its walltime is assumed to release imminently.
	cl := cluster.New(1, 8)
	a := &job.Job{ID: 1, Cores: 8, Walltime: sim.Minute, StartTime: 0, State: job.Running}
	cl.Allocate(1, 8)
	now := 10 * sim.Minute
	p := buildProfile(now, cl, []*job.Job{a})
	if got := p.FreeAt(now); got != 0 {
		t.Errorf("free now = %d", got)
	}
	if got := p.FreeAt(now + sim.Second); got != 8 {
		t.Errorf("free after imminent release = %d", got)
	}
}

// TestPlanJobsHeldDepth verifies the Fig. 5 mechanics: StartNow jobs
// always hold; blocked jobs hold only up to maxHeld; the rest get
// optimistic starts without holds.
func TestPlanJobsHeldDepth(t *testing.T) {
	// 8 cores free now, 8 more at t=1h.
	p := profile.New(0, 8)
	p.AddRelease(sim.Hour, 8)
	jobs := []*job.Job{
		planJob(1, 8, 30*sim.Minute), // StartNow
		planJob(2, 16, sim.Hour),     // blocked → held (depth 1)
		planJob(3, 16, sim.Hour),     // blocked → beyond depth, no hold
	}
	plans := planJobs(p, jobs, 0, 1)
	if !plans[0].StartNow || !plans[0].Held {
		t.Errorf("job1 = %+v", plans[0])
	}
	if plans[1].StartNow || !plans[1].Held {
		t.Errorf("job2 = %+v", plans[1])
	}
	// Job2's reservation: 16 cores need job1's hold to clear (30 min)
	// AND the 1h release → earliest 1h.
	if plans[1].Start != sim.Hour {
		t.Errorf("job2 start = %v", plans[1].Start)
	}
	if plans[2].Held {
		t.Errorf("job3 should be beyond the hold depth: %+v", plans[2])
	}
	// Job3's optimistic start ignores job2? No: job2 holds [1h, 2h),
	// so job3 sees 16 free only at 2h.
	if plans[2].Start != 2*sim.Hour {
		t.Errorf("job3 start = %v", plans[2].Start)
	}
}

func TestPlanJobsImpossibleJob(t *testing.T) {
	p := profile.New(0, 8)
	jobs := []*job.Job{planJob(1, 100, sim.Hour)}
	plans := planJobs(p, jobs, 0, 5)
	if plans[0].Start != sim.Forever || plans[0].Held {
		t.Errorf("impossible job plan = %+v", plans[0])
	}
}

func TestDelaySet(t *testing.T) {
	mk := func(id int, startNow, held bool, start sim.Time) Planned {
		return Planned{Job: planJob(id, 1, sim.Hour), StartNow: startNow, Held: held, Start: start}
	}
	plans := []Planned{
		mk(1, true, true, 0),
		mk(2, false, true, sim.Hour),     // blocked 1
		mk(3, false, false, 2*sim.Hour),  // blocked 2
		mk(4, false, false, 3*sim.Hour),  // blocked 3 — beyond delay depth 2
		mk(5, true, true, 0),             // StartNow always included
		mk(6, false, false, sim.Forever), // never fits — excluded
	}
	got, last := delaySet(plans, 2)
	ids := make([]job.ID, len(got))
	for i, p := range got {
		ids[i] = p.Job.ID
	}
	want := []job.ID{1, 2, 3, 5}
	if last != 4 {
		t.Fatalf("last measured index = %d, want 4 (job 5)", last)
	}
	if len(ids) != len(want) {
		t.Fatalf("delay set = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("delay set = %v, want %v", ids, want)
		}
	}
}

func TestHoldEndOverflow(t *testing.T) {
	if holdEnd(100, sim.Forever) != sim.Forever {
		t.Error("walltime overflow must clamp to Forever")
	}
	if holdEnd(100, 50) != 150 {
		t.Error("normal hold end")
	}
}

// whatIfCase is one what-if measurement: a cluster's availability, a
// queue, the planning depths and a grant of need cores until end.
type whatIfCase struct {
	now                 sim.Time
	idle                int
	releases            [][2]int64 // (time, cores)
	jobs                []*job.Job
	maxHeld, delayDepth int
	need                int
	end                 sim.Time
}

func (c whatIfCase) builder() *profile.Builder {
	b := profile.NewBuilder(c.now, c.idle)
	for _, r := range c.releases {
		b.Release(sim.Time(r[0]), int(r[1]))
	}
	return b
}

// whatIfPrune is where a walk over plans stops placing holds and
// measuring blocked rows: from there on only a start now counts.
func whatIfPrune(plans []Planned, maxHeld, delayDepth int) int {
	held, blocked := 0, 0
	for i, p := range plans {
		if held >= maxHeld && blocked >= delayDepth {
			return i
		}
		if !p.StartNow && p.Start < sim.Forever {
			held, blocked = held+1, blocked+1
		}
	}
	return len(plans)
}

// checkWhatIf runs both sides of the what-if through planTable — base,
// candidate with the base's measured rows as its need list, and the
// candidate again up to the last of them only, as a cached base does —
// and requires what planJobs and delaySet give over flat profiles. It
// returns how many need rows lay beyond the candidate's prune point.
func checkWhatIf(t *testing.T, name string, c whatIfCase, tb *jobTable) (beyondPrune int) {
	t.Helper()
	tb.fill(c.jobs, c.now, DefaultWeights(), nil)
	n := tb.len()
	sameMeasured := func(side string, got, want []Planned) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s %s: measured %d rows, delaySet %d", name, side, len(got), len(want))
		}
		for k := range want {
			g, w := got[k], want[k]
			if g.Job != w.Job || g.Start != w.Start || g.StartNow != w.StartNow || tb.jobs[g.idx] != g.Job {
				t.Fatalf("%s %s: measured[%d] = (%v at %v, now %v, row %d), delaySet (%v at %v, now %v)",
					name, side, k, g.Job.ID, g.Start, g.StartNow, g.idx, w.Job.ID, w.Start, w.StartNow)
			}
		}
	}

	basePlans := planJobs(c.builder().Build(), tb.jobs, c.now, c.maxHeld)
	wantBase, _ := delaySet(basePlans, c.delayDepth)
	base := planTable(c.builder().BuildSegInto(&profile.SegProfile{}), tb, n, c.now, c.maxHeld, c.delayDepth, nil, nil, nil)
	sameMeasured("base", base, wantBase)

	cand := func() (*profile.Profile, *profile.SegProfile) {
		flat, seg := c.builder().Build(), c.builder().BuildSegInto(&profile.SegProfile{})
		flat.AddHold(c.now, c.end, c.need)
		seg.AddHold(c.now, c.end, c.need)
		return flat, seg
	}
	flat, seg := cand()
	candPlans := planJobs(flat, tb.jobs, c.now, c.maxHeld)
	want := startsByID(candPlans)
	wantCand, _ := delaySet(candPlans, c.delayDepth)
	prune := whatIfPrune(candPlans, c.maxHeld, c.delayDepth)
	upTo := 0
	if k := len(base); k > 0 {
		upTo = base[k-1].idx + 1
	}
	for _, full := range []bool{true, false} {
		starts := make([]sim.Time, n)
		for i := range starts {
			starts[i] = -1
		}
		if full {
			sameMeasured("candidate", planTable(seg, tb, n, c.now, c.maxHeld, c.delayDepth, base, starts, nil), wantCand)
		} else {
			_, seg := cand()
			planTable(seg, tb, upTo, c.now, c.maxHeld, c.delayDepth, base, starts, nil)
		}
		for _, p := range base {
			if starts[p.idx] != want[p.Job.ID] {
				t.Fatalf("%s candidate (full %v): need row %d (%v) starts at %v, planJobs %v",
					name, full, p.idx, p.Job.ID, starts[p.idx], want[p.Job.ID])
			}
		}
	}
	for _, p := range base {
		if p.idx >= prune {
			beyondPrune++
		}
	}
	return beyondPrune
}

// TestPlanTableMatchesPlanJobs differences the pruned what-if walks
// against planJobs + delaySet, which search a slot for every row: on
// random clusters and queues (rows of no cores and of endless walltime
// among them) at every combination of hold and delay depth, the base
// side's measured set, the candidate side's starts for every row the base
// side measured, and the candidate side's own measured set must be
// identical. Two constructed queues put a need row where the candidate
// walk no longer searches — among rows it passes over, and behind the
// point where it ends.
func TestPlanTableMatchesPlanJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb jobTable
	beyondPrune := 0
	for round := 0; round < 600; round++ {
		c := whatIfCase{
			now:        sim.Hour,
			idle:       rng.Intn(40),
			maxHeld:    rng.Intn(6),
			delayDepth: rng.Intn(6),
		}
		if c.delayDepth > c.maxHeld && rng.Intn(2) == 0 {
			c.maxHeld = c.delayDepth // the scheduler's max(ReservationDepth, ReservationDelayDepth)
		}
		for k := rng.Intn(30); k > 0; k-- {
			c.releases = append(c.releases, [2]int64{int64(c.now) + int64(1+rng.Intn(36000))*int64(sim.Second), int64(1 + rng.Intn(16))})
		}
		for i := rng.Intn(300); i > 0; i-- {
			j := planJob(len(c.jobs)+1, 1+rng.Intn(48), sim.Duration(1+rng.Intn(600))*sim.Minute)
			j.SubmitTime = sim.Time(rng.Intn(3600)) * sim.Second
			switch rng.Intn(40) {
			case 0:
				j.Cores = 0
			case 1:
				j.Walltime = sim.Forever
			}
			c.jobs = append(c.jobs, j)
		}
		c.need = 1 + rng.Intn(max(1, c.idle))
		c.end = c.now + sim.Duration(1+rng.Intn(600))*sim.Minute
		beyondPrune += checkWhatIf(t, fmt.Sprintf("round %d", round), c, &tb)
	}
	if beyondPrune == 0 || tb.whatIfSkips == 0 {
		t.Errorf("no need row beyond the prune point (%d) or no row passed over (%d): pruning not exercised", beyondPrune, tb.whatIfSkips)
	}

	// 8 cores free; one held reservation; then rows too wide to start
	// now, and a 4-core row deep in the queue that starts now on the base
	// side. A 6-core grant leaves 2 free: the candidate walk passes over
	// the wide rows but searches the need row among them.
	wide := func(id int) *job.Job { return planJob(id, 16, sim.Hour) }
	jobs := []*job.Job{wide(1)}
	for id := 2; id < 50; id++ {
		jobs = append(jobs, wide(id))
	}
	jobs = append(jobs, planJob(50, 4, sim.Hour))
	for id := 51; id < 80; id++ {
		jobs = append(jobs, wide(id))
	}
	for i, j := range jobs {
		j.SubmitTime = sim.Time(i)
	}
	c := whatIfCase{now: sim.Hour, idle: 8, releases: [][2]int64{{int64(2 * sim.Hour), 32}},
		jobs: jobs, maxHeld: 1, delayDepth: 1, need: 6, end: 3 * sim.Hour}
	skips := tb.whatIfSkips
	if checkWhatIf(t, "passed over", c, &tb) != 1 || tb.whatIfSkips == skips {
		t.Errorf("passed over: the need row should lie beyond the candidate's prune point among rows passed over")
	}
	// An 8-core grant leaves none free: the candidate walk ends at its
	// prune point, and the need row behind it is searched afterwards.
	// The base side passes the 77 wide rows behind its reservation over
	// once; a candidate walk that went on would pass them over again.
	c.need = 8
	skips = tb.whatIfSkips
	if checkWhatIf(t, "behind the end", c, &tb) != 1 || tb.whatIfSkips-skips != 77 {
		t.Errorf("behind the end: %d rows passed over, want the base side's 77 alone", tb.whatIfSkips-skips)
	}
}
