package rms

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// harness bundles a fresh simulated batch system.
type harness struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	srv *Server
	rec *metrics.Recorder
}

func newHarness(nodes, cores int, policy fairness.Policy, mut func(*config.SchedConfig)) *harness {
	eng := sim.NewEngine()
	cl := cluster.New(nodes, cores)
	cfg := config.Default()
	cfg.Fairness = fairness.NewConfig(policy)
	if mut != nil {
		mut(cfg)
	}
	sched := core.New(core.Options{Config: cfg}, 0)
	rec := metrics.NewRecorder(cl.TotalCores())
	srv := NewServer(eng, cl, sched, rec)
	return &harness{eng: eng, cl: cl, srv: srv, rec: rec}
}

func rigid(name, user string, cores int, wall sim.Duration) (*job.Job, App) {
	return &job.Job{Name: name, Cred: job.Credentials{User: user, Group: "g_" + user}, Cores: cores, Walltime: wall},
		&FixedApp{Runtime: wall / 2}
}

func TestSubmitRunComplete(t *testing.T) {
	h := newHarness(2, 8, fairness.None, nil)
	j := &job.Job{Name: "A.1", Cred: job.Credentials{User: "u"}, Cores: 8, Walltime: sim.Hour}
	h.srv.Submit(j, &FixedApp{Runtime: 10 * sim.Minute})
	h.srv.Run(0)
	if j.State != job.Completed {
		t.Fatalf("state = %v", j.State)
	}
	if j.StartTime != 0 || j.EndTime != 10*sim.Minute {
		t.Errorf("timeline: start=%v end=%v", j.StartTime, j.EndTime)
	}
	if h.srv.Completed() != 1 || h.srv.Submitted() != 1 {
		t.Error("counters")
	}
	if h.cl.IdleCores() != 16 {
		t.Error("resources not released")
	}
	jobs := h.rec.Jobs()
	if len(jobs) != 1 || jobs[0].Type != "A" || jobs[0].Wait() != 0 {
		t.Errorf("metrics record = %+v", jobs)
	}
}

func TestContentionFIFO(t *testing.T) {
	h := newHarness(1, 8, fairness.None, nil)
	j1, a1 := rigid("x.1", "u1", 8, sim.Hour)
	j2, a2 := rigid("x.2", "u2", 8, sim.Hour)
	h.srv.Submit(j1, a1)
	h.srv.SubmitAt(sim.Second, j2, a2)
	h.srv.Run(0)
	if j1.StartTime != 0 {
		t.Errorf("j1 start = %v", j1.StartTime)
	}
	// j2 waits for j1's completion at 30min.
	if j2.StartTime != 30*sim.Minute {
		t.Errorf("j2 start = %v", j2.StartTime)
	}
	if j2.WaitTime() != 30*sim.Minute-sim.Second {
		t.Errorf("j2 wait = %v", j2.WaitTime())
	}
}

func TestBackfillInSim(t *testing.T) {
	// 16 cores; long job holds 8 for 2h (runtime 1h). Queued: big 16-core
	// job (blocked, reserved at 1h via walltime=2h... runtime 1h so ends at 1h),
	// then a small short job that backfills immediately.
	h := newHarness(2, 8, fairness.None, nil)
	long := &job.Job{Name: "long", Cred: job.Credentials{User: "a"}, Cores: 8, Walltime: 2 * sim.Hour}
	h.srv.Submit(long, &FixedApp{Runtime: sim.Hour})
	big := &job.Job{Name: "big", Cred: job.Credentials{User: "b"}, Cores: 16, Walltime: sim.Hour}
	h.srv.SubmitAt(sim.Second, big, &FixedApp{Runtime: 30 * sim.Minute})
	small := &job.Job{Name: "small", Cred: job.Credentials{User: "c"}, Cores: 8, Walltime: 30 * sim.Minute}
	h.srv.SubmitAt(2*sim.Second, small, &FixedApp{Runtime: 10 * sim.Minute})
	h.srv.Run(0)
	if !small.Backfilled {
		t.Error("small job should have backfilled")
	}
	if small.StartTime != 2*sim.Second {
		t.Errorf("small start = %v", small.StartTime)
	}
	// big starts when long actually completes (1h), earlier than the
	// walltime-based reservation (2h) — completion triggers a cycle.
	if big.StartTime != sim.Hour {
		t.Errorf("big start = %v", big.StartTime)
	}
	if h.rec.BackfilledJobs() != 1 {
		t.Error("metrics should count one backfilled job")
	}
}

func TestEvolvingGrantAtFirstAttempt(t *testing.T) {
	h := newHarness(2, 8, fairness.None, nil)
	set, det := 1000*sim.Second, 700*sim.Second
	j := &job.Job{Name: "F.1", Cred: job.Credentials{User: "u"}, Class: job.Evolving, Cores: 8, Walltime: 2000 * sim.Second}
	app := &EvolvingApp{SET: set, DET: det, ExtraCores: 4, AttemptFracs: DefaultAttemptFracs()}
	h.srv.Submit(j, app)
	h.srv.Run(0)
	if !app.Granted() {
		t.Fatal("idle cluster: grant expected")
	}
	if j.EndTime != det {
		t.Errorf("end = %v, want DET %v", j.EndTime, det)
	}
	if j.TotalCores() != 12 {
		// Cores are released at completion; TotalCores retains the
		// final composition (8 base + 4 dynamic).
		t.Errorf("total cores = %d", j.TotalCores())
	}
	if h.rec.SatisfiedDynJobs() != 1 {
		t.Error("metrics satisfied count")
	}
	if h.cl.IdleCores() != 16 {
		t.Error("all cores released")
	}
}

func TestEvolvingBothAttemptsRejected(t *testing.T) {
	// Blocker occupies the remaining cores past 25% of SET; both
	// attempts fail and the job runs the full SET.
	h := newHarness(2, 8, fairness.None, nil)
	set := 1000 * sim.Second
	blocker := &job.Job{Name: "blk", Cred: job.Credentials{User: "x"}, Cores: 8, Walltime: 2000 * sim.Second}
	h.srv.Submit(blocker, &FixedApp{Runtime: 400 * sim.Second}) // past 250s
	j := &job.Job{Name: "F.1", Cred: job.Credentials{User: "u"}, Class: job.Evolving, Cores: 8, Walltime: 2000 * sim.Second}
	app := &EvolvingApp{SET: set, DET: 700 * sim.Second, ExtraCores: 4, AttemptFracs: DefaultAttemptFracs()}
	h.srv.Submit(j, app)
	h.srv.Run(0)
	if app.Granted() {
		t.Fatal("no resources at 16% or 25%: must not be granted")
	}
	if j.EndTime != set {
		t.Errorf("end = %v, want SET %v", j.EndTime, set)
	}
	if h.rec.SatisfiedDynJobs() != 0 {
		t.Error("metrics satisfied count should be 0")
	}
}

func TestEvolvingSecondAttemptGrant(t *testing.T) {
	// Blocker frees cores between 16% and 25% of SET: the second
	// attempt succeeds and the end time follows the grant formula.
	h := newHarness(2, 8, fairness.None, nil)
	set, det := 1000*sim.Second, 700*sim.Second
	blocker := &job.Job{Name: "blk", Cred: job.Credentials{User: "x"}, Cores: 8, Walltime: 2000 * sim.Second}
	h.srv.Submit(blocker, &FixedApp{Runtime: 200 * sim.Second}) // frees at 200s (between 160 and 250)
	j := &job.Job{Name: "F.1", Cred: job.Credentials{User: "u"}, Class: job.Evolving, Cores: 8, Walltime: 2000 * sim.Second}
	app := &EvolvingApp{SET: set, DET: det, ExtraCores: 4, AttemptFracs: DefaultAttemptFracs()}
	h.srv.Submit(j, app)
	h.srv.Run(0)
	if !app.Granted() {
		t.Fatal("second attempt should be granted")
	}
	want := app.EndAfterGrant(250 * sim.Second)
	if j.EndTime != want {
		t.Errorf("end = %v, want %v", j.EndTime, want)
	}
	if want <= det || want >= set {
		t.Errorf("second-attempt end %v should lie between DET and SET", want)
	}
}

func TestEndAfterGrantFormula(t *testing.T) {
	app := &EvolvingApp{SET: 1846 * sim.Second, DET: 1230 * sim.Second, AttemptFracs: DefaultAttemptFracs()}
	// Grant at exactly t1 = 16% SET yields DET (paper Table I, type F).
	t1 := sim.Duration(0.16 * float64(app.SET))
	got := app.EndAfterGrant(t1)
	if diff := got - app.DET; diff < -sim.Second || diff > sim.Second {
		t.Errorf("grant at t1: end = %v, want ≈ %v", got, app.DET)
	}
	// Grant at SET or beyond changes nothing.
	if app.EndAfterGrant(app.SET) != app.SET {
		t.Error("late grant must not shorten a finished run")
	}
	// Monotone: later grants never finish earlier.
	prev := sim.Duration(0)
	for _, tt := range []sim.Duration{t1, 500 * sim.Second, 1000 * sim.Second, 1500 * sim.Second} {
		e := app.EndAfterGrant(tt)
		if e < prev {
			t.Errorf("EndAfterGrant not monotone at %v", tt)
		}
		prev = e
	}
}

func TestDynFairnessVetoInSim(t *testing.T) {
	// The evolving job's grant would delay a queued job beyond its
	// user's single-job limit: rejected, job runs to SET.
	h := newHarness(2, 8, fairness.SingleJobDelay, func(c *config.SchedConfig) {
		c.Fairness.Set(fairness.KindUser, "victim", fairness.Limits{SingleDelayTime: sim.Minute})
	})
	set := 1000 * sim.Second
	j := &job.Job{Name: "F.1", Cred: job.Credentials{User: "evolver"}, Class: job.Evolving, Cores: 4, Walltime: 4000 * sim.Second}
	app := &EvolvingApp{SET: set, DET: 700 * sim.Second, ExtraCores: 4, AttemptFracs: []float64{0.16}}
	h.srv.Submit(j, app)
	// A filler frees 8 cores at 300 s; the 12-core victim would start
	// then — unless the grant holds 4 of those cores until the
	// evolving job's walltime end (4000 s), a 3700 s delay.
	filler := &job.Job{Name: "fill", Cred: job.Credentials{User: "x"}, Cores: 8, Walltime: 300 * sim.Second}
	h.srv.Submit(filler, &FixedApp{Runtime: 300 * sim.Second})
	victim := &job.Job{Name: "V.1", Cred: job.Credentials{User: "victim"}, Cores: 12, Walltime: sim.Hour}
	h.srv.SubmitAt(10*sim.Second, victim, &FixedApp{Runtime: sim.Minute})
	h.srv.Run(0)
	if app.Granted() {
		t.Fatal("fairness must veto the grant")
	}
	if j.EndTime != set {
		t.Errorf("evolving end = %v, want SET", j.EndTime)
	}
	if victim.StartTime != 300*sim.Second {
		t.Errorf("victim start = %v, want 300s", victim.StartTime)
	}
}

func TestDynFree(t *testing.T) {
	h := newHarness(2, 8, fairness.None, nil)
	j := &job.Job{Name: "rel", Cred: job.Credentials{User: "u"}, Cores: 16, Walltime: sim.Hour}
	released := false
	h.srv.Submit(j, &hookApp{
		onStart: func(s *Server, jj *job.Job, now sim.Time) {
			s.ScheduleCompletion(jj, now+30*sim.Minute)
			s.ScheduleAppEvent(jj, now+10*sim.Minute, "release", func(sim.Time) {
				part := s.Cluster().AllocOf(jj.ID)[:1] // release one node's slice
				if err := s.DynFree(jj, cluster.Alloc{{NodeID: part[0].NodeID, Cores: part[0].Cores}}); err != nil {
					t.Errorf("DynFree: %v", err)
				}
				released = true
			})
		},
	})
	// A queued job that fits only after the release.
	waiter := &job.Job{Name: "w", Cred: job.Credentials{User: "v"}, Cores: 8, Walltime: sim.Hour}
	h.srv.SubmitAt(sim.Minute, waiter, &FixedApp{Runtime: sim.Minute})
	h.srv.Run(0)
	if !released {
		t.Fatal("release never happened")
	}
	if waiter.StartTime != 10*sim.Minute {
		t.Errorf("waiter start = %v, want 10m (right after dyn_disjoin)", waiter.StartTime)
	}
	if j.Cores != 8 || j.DynCores != 0 {
		t.Errorf("job cores after shrink = %d+%d", j.Cores, j.DynCores)
	}
}

// hookApp lets tests inject custom app behaviour.
type hookApp struct {
	onStart func(*Server, *job.Job, sim.Time)
	onDyn   func(*Server, *job.Job, bool, sim.Time)
}

func (h *hookApp) OnStart(s *Server, j *job.Job, now sim.Time) {
	if h.onStart != nil {
		h.onStart(s, j, now)
	} else {
		s.ScheduleCompletion(j, now+j.Walltime)
	}
}
func (h *hookApp) OnDynResult(s *Server, j *job.Job, granted bool, now sim.Time) {
	if h.onDyn != nil {
		h.onDyn(s, j, granted, now)
	}
}
func (h *hookApp) OnPreempt(*Server, *job.Job, sim.Time) {}

func TestOnePendingDynRequestPerJob(t *testing.T) {
	h := newHarness(2, 8, fairness.None, nil)
	j := &job.Job{Name: "e", Cred: job.Credentials{User: "u"}, Class: job.Evolving, Cores: 4, Walltime: sim.Hour}
	var firstErr, secondErr error
	h.srv.Submit(j, &hookApp{
		onStart: func(s *Server, jj *job.Job, now sim.Time) {
			s.ScheduleCompletion(jj, now+10*sim.Minute)
			s.ScheduleAppEvent(jj, now+sim.Minute, "req", func(sim.Time) {
				firstErr = s.RequestDyn(jj, 2)
				secondErr = s.RequestDyn(jj, 2)
			})
		},
	})
	h.srv.Run(0)
	if firstErr != nil {
		t.Errorf("first request: %v", firstErr)
	}
	if secondErr == nil {
		t.Error("second concurrent request must be refused (mother-superior serialization)")
	}
}

func TestRequestDynRequiresRunningJob(t *testing.T) {
	h := newHarness(1, 8, fairness.None, nil)
	j := &job.Job{Name: "q", Cred: job.Credentials{User: "u"}, Cores: 4, Walltime: sim.Hour, State: job.Queued}
	if err := h.srv.RequestDyn(j, 2); err == nil {
		t.Error("queued job cannot issue dynamic requests")
	}
}

func TestWalltimeEnforcement(t *testing.T) {
	h := newHarness(1, 8, fairness.None, nil)
	j := &job.Job{Name: "overrun", Cred: job.Credentials{User: "u"}, Cores: 8, Walltime: 10 * sim.Minute}
	h.srv.Submit(j, &FixedApp{Runtime: sim.Hour})
	h.srv.Run(0)
	if j.State != job.Cancelled {
		t.Fatalf("state = %v, want cancelled at walltime", j.State)
	}
	if j.EndTime != 10*sim.Minute {
		t.Errorf("killed at %v", j.EndTime)
	}
	if h.srv.Cancelled() != 1 {
		t.Error("cancelled counter")
	}
	if h.cl.IdleCores() != 8 {
		t.Error("killed job must release resources")
	}
}

func TestWalltimeEnforcementDisabled(t *testing.T) {
	h := newHarness(1, 8, fairness.None, nil)
	h.srv.EnforceWalltime = false
	j := &job.Job{Name: "overrun", Cred: job.Credentials{User: "u"}, Cores: 8, Walltime: 10 * sim.Minute}
	h.srv.Submit(j, &FixedApp{Runtime: 20 * sim.Minute})
	h.srv.Run(0)
	if j.State != job.Completed || j.EndTime != 20*sim.Minute {
		t.Error("without enforcement the job runs to completion")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	h := newHarness(1, 8, fairness.None, nil)
	blocker := &job.Job{Name: "b", Cred: job.Credentials{User: "u"}, Cores: 8, Walltime: sim.Hour}
	h.srv.Submit(blocker, &FixedApp{Runtime: sim.Hour / 2})
	victim := &job.Job{Name: "v", Cred: job.Credentials{User: "u"}, Cores: 8, Walltime: sim.Hour}
	h.srv.Submit(victim, &FixedApp{Runtime: sim.Minute})
	h.eng.At(sim.Minute, "qdel", func(sim.Time) { h.srv.CancelJob(victim) })
	h.srv.Run(0)
	if victim.State != job.Cancelled {
		t.Fatalf("victim state = %v", victim.State)
	}
	if victim.StartTime != 0 {
		t.Error("cancelled queued job must never start")
	}
	// Cancelling twice is a no-op.
	h.srv.CancelJob(victim)
	if h.srv.Cancelled() != 1 {
		t.Error("double cancel must not double count")
	}
}

func TestPreemptionRoundTrip(t *testing.T) {
	h := newHarness(2, 8, fairness.None, func(c *config.SchedConfig) {
		c.PreemptPolicy = "REQUEUE"
	})
	// Fill the cluster: an evolving job (8) and a job that will be
	// backfilled (8). The evolving job then demands 8 more cores,
	// which preempts the backfilled job.
	long := &job.Job{Name: "hp", Cred: job.Credentials{User: "a"}, Cores: 8, Walltime: 2 * sim.Hour}
	h.srv.Submit(long, &FixedApp{Runtime: sim.Hour})
	big := &job.Job{Name: "big", Cred: job.Credentials{User: "b"}, Cores: 16, Walltime: sim.Hour}
	h.srv.SubmitAt(sim.Second, big, &FixedApp{Runtime: 30 * sim.Minute})
	bf := &job.Job{Name: "bf", Cred: job.Credentials{User: "c"}, Cores: 8, Walltime: 20 * sim.Minute}
	h.srv.SubmitAt(2*sim.Second, bf, &FixedApp{Runtime: 15 * sim.Minute})

	evolver := long
	evolver.Class = job.Evolving
	h.eng.At(3*sim.Minute, "dynget", func(sim.Time) {
		if bf.State == job.Running {
			_ = h.srv.RequestDyn(evolver, 8)
		}
	})
	h.srv.Run(0)
	if evolver.State != job.Completed {
		t.Fatalf("evolver state = %v", evolver.State)
	}
	// The backfilled job must have been preempted and restarted later.
	if bf.State != job.Completed {
		t.Fatalf("bf state = %v", bf.State)
	}
	if bf.StartTime <= 2*sim.Second {
		t.Errorf("bf restart time = %v; it should have restarted after preemption", bf.StartTime)
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	h := newHarness(1, 8, fairness.None, nil)
	j := &job.Job{Name: "u", Cred: job.Credentials{User: "u"}, Cores: 8, Walltime: sim.Hour}
	h.srv.Submit(j, &FixedApp{Runtime: 30 * sim.Minute})
	h.srv.Run(0)
	// 8 cores busy 30min of a 30min makespan: 100%.
	if u := h.rec.Utilization(); u < 0.999 {
		t.Errorf("utilization = %v", u)
	}
}

func TestNoAppDefaultsToWalltime(t *testing.T) {
	h := newHarness(1, 8, fairness.None, nil)
	j := &job.Job{Name: "n", Cred: job.Credentials{User: "u"}, Cores: 8, Walltime: 10 * sim.Minute}
	h.srv.Submit(j, nil)
	h.srv.Run(0)
	if j.State != job.Completed || j.EndTime != 10*sim.Minute {
		t.Errorf("nil-app job should run to walltime: %v at %v", j.State, j.EndTime)
	}
}

// TestQueueIndexKeepsOrder takes jobs out of the queue from anywhere in
// it — starts, cancellations — and puts preempted ones back at its tail,
// past several compactions, and requires the queue to stay in
// submission order and the running set in id order.
func TestQueueIndexKeepsOrder(t *testing.T) {
	h := newHarness(64, 8, fairness.None, nil)
	s := h.srv
	var want []*job.Job
	for i := 0; i < 400; i++ {
		j := &job.Job{Name: "q", Cred: job.Credentials{User: "u"}, Cores: 1, Walltime: sim.Hour}
		s.Submit(j, nil)
		want = append(want, j)
	}
	check := func(when string) {
		t.Helper()
		got := s.QueuedJobs()
		if len(got) != len(want) {
			t.Fatalf("%s: %d queued, want %d", when, len(got), len(want))
		}
		for i, j := range want {
			if got[i] != j {
				t.Fatalf("%s: queue position %d holds %v, want %v", when, i, got[i].ID, j.ID)
			}
		}
		active := s.ActiveJobs()
		for i := 1; i < len(active); i++ {
			if active[i-1].ID >= active[i].ID {
				t.Fatalf("%s: running jobs out of id order: %v before %v", when, active[i-1].ID, active[i].ID)
			}
		}
	}
	remove := func(j *job.Job) {
		for i, q := range want {
			if q == j {
				want = append(want[:i], want[i+1:]...)
				return
			}
		}
	}
	var started []*job.Job
	for round := 0; len(want) > 40; round++ {
		// Every third from the back starts, every seventh from the front
		// is cancelled, and one started job is preempted back.
		for i := len(want) - 1; i >= 0; i -= 3 {
			j := want[i]
			if _, err := s.StartJob(j); err != nil {
				t.Fatal(err)
			}
			remove(j)
			started = append(started, j)
		}
		for i := 0; i < len(want); i += 7 {
			s.CancelJob(want[i])
		}
		for _, j := range append([]*job.Job(nil), want...) {
			if j.State == job.Cancelled {
				remove(j)
			}
		}
		check("after starts and cancellations")
		j := started[len(started)/2]
		if j.Active() {
			if err := s.Preempt(j); err != nil {
				t.Fatal(err)
			}
			want = append(want, j)
		}
		check("after a preemption")
		for _, j := range started {
			if j.Active() {
				s.CompleteJob(j)
			}
		}
		started = started[:0]
	}
}
