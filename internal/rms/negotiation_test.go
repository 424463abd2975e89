package rms

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/job"
	"repro/internal/sim"
)

// negotiatorApp asks for cores with a timeout and records the outcome.
type negotiatorApp struct {
	extra    int
	timeout  sim.Duration
	reqAt    sim.Duration // elapsed time after start at which to request
	granted  bool
	rejected bool
	grantAt  sim.Time
}

func (a *negotiatorApp) OnStart(s *Server, j *job.Job, now sim.Time) {
	s.ScheduleCompletion(j, now+j.Walltime/2)
	s.ScheduleAppEvent(j, now+a.reqAt, "negotiate", func(sim.Time) {
		if j.State == job.Running {
			_ = s.RequestDynTimeout(j, a.extra, a.timeout)
		}
	})
}

func (a *negotiatorApp) OnDynResult(s *Server, j *job.Job, granted bool, now sim.Time) {
	if granted {
		a.granted = true
		a.grantAt = now
	} else {
		a.rejected = true
	}
}

func (a *negotiatorApp) OnPreempt(*Server, *job.Job, sim.Time) {}

// TestNegotiationGrantWhenResourcesFree verifies the §III-C future-work
// protocol: a request that cannot be served immediately stays queued
// and is granted the moment a blocker completes, well before the
// deadline.
func TestNegotiationGrantWhenResourcesFree(t *testing.T) {
	h := newHarness(2, 8, fairness.None, nil)
	// The blocker holds the second node for 5 minutes.
	blocker := &job.Job{Name: "blk", Cred: job.Credentials{User: "x"}, Cores: 8, Walltime: sim.Hour}
	h.srv.Submit(blocker, &FixedApp{Runtime: 5 * sim.Minute})
	app := &negotiatorApp{extra: 8, timeout: 30 * sim.Minute, reqAt: sim.Minute}
	j := &job.Job{Name: "neg", Cred: job.Credentials{User: "u"}, Class: job.Evolving, Cores: 8, Walltime: sim.Hour}
	h.srv.Submit(j, app)
	h.srv.Run(0)
	if !app.granted {
		t.Fatal("negotiable request should be granted when the blocker ends")
	}
	if app.grantAt != 5*sim.Minute {
		t.Errorf("grant at %v, want the blocker's completion at 5m", app.grantAt)
	}
	if app.rejected {
		t.Error("no rejection should be delivered after a grant")
	}
}

// TestNegotiationDeadlineExpires verifies the rejection half: when no
// resources appear before the deadline, the application receives the
// final verdict exactly at the deadline.
func TestNegotiationDeadlineExpires(t *testing.T) {
	h := newHarness(2, 8, fairness.None, nil)
	blocker := &job.Job{Name: "blk", Cred: job.Credentials{User: "x"}, Cores: 8, Walltime: 3 * sim.Hour}
	h.srv.Submit(blocker, &FixedApp{Runtime: 2 * sim.Hour})
	app := &negotiatorApp{extra: 8, timeout: 10 * sim.Minute, reqAt: sim.Minute}
	j := &job.Job{Name: "neg", Cred: job.Credentials{User: "u"}, Class: job.Evolving, Cores: 8, Walltime: sim.Hour}
	h.srv.Submit(j, app)
	h.srv.Run(0)
	if app.granted {
		t.Fatal("no resources before the deadline: must not be granted")
	}
	if !app.rejected {
		t.Fatal("the application must receive the deadline rejection")
	}
	if j.State != job.Completed {
		t.Errorf("job should still complete on its original allocation: %v", j.State)
	}
}

// TestNegotiationZeroTimeoutFallsBack ensures timeout 0 keeps the
// paper's immediate-verdict semantics.
func TestNegotiationZeroTimeoutFallsBack(t *testing.T) {
	h := newHarness(1, 8, fairness.None, nil)
	app := &negotiatorApp{extra: 100, timeout: 0, reqAt: sim.Minute}
	j := &job.Job{Name: "neg", Cred: job.Credentials{User: "u"}, Class: job.Evolving, Cores: 8, Walltime: sim.Hour}
	h.srv.Submit(j, app)
	h.srv.Run(0)
	if !app.rejected || app.granted {
		t.Error("zero timeout should produce an immediate rejection")
	}
}

// TestNegotiationFairnessDeferral: a request vetoed by fairness keeps
// negotiating and succeeds once the victim's reservation is no longer
// delayed (the victim starts).
func TestNegotiationFairnessDeferral(t *testing.T) {
	h := newHarness(2, 8, fairness.SingleJobDelay, func(c *config.SchedConfig) {
		c.Fairness.Set(fairness.KindUser, "victim", fairness.Limits{SingleDelayTime: sim.Minute})
	})
	// Evolving job on 4 cores, long walltime.
	app := &negotiatorApp{extra: 4, timeout: 2 * sim.Hour, reqAt: 2 * sim.Minute}
	j := &job.Job{Name: "neg", Cred: job.Credentials{User: "evolver"}, Class: job.Evolving, Cores: 4, Walltime: 4 * sim.Hour}
	h.srv.Submit(j, app)
	// Filler frees 8 cores at t=10m; the victim (12 cores) would start
	// then, unless the grant (held to the evolving walltime end)
	// blocks it — so the fairness gate defers the grant until the
	// victim is running.
	filler := &job.Job{Name: "fill", Cred: job.Credentials{User: "x"}, Cores: 8, Walltime: 10 * sim.Minute}
	h.srv.Submit(filler, &FixedApp{Runtime: 10 * sim.Minute})
	victim := &job.Job{Name: "V", Cred: job.Credentials{User: "victim"}, Cores: 12, Walltime: sim.Hour}
	h.srv.SubmitAt(sim.Minute, victim, &FixedApp{Runtime: 20 * sim.Minute})
	h.srv.Run(0)

	if !app.granted {
		t.Fatal("deferred request should eventually be granted")
	}
	if app.grantAt < 10*sim.Minute {
		t.Errorf("grant at %v must wait for the victim to start", app.grantAt)
	}
	if victim.StartTime != 10*sim.Minute {
		t.Errorf("victim start = %v, want 10m (undelayed)", victim.StartTime)
	}
}

// TestDynRequestDeadlineHelpers covers the job-level predicates.
func TestDynRequestDeadlineHelpers(t *testing.T) {
	r := &job.DynRequest{Job: &job.Job{}, Cores: 1}
	if r.Negotiable() || r.Expired(100) {
		t.Error("zero deadline is not negotiable")
	}
	r.Deadline = 50
	if !r.Negotiable() || r.Expired(49) || !r.Expired(50) {
		t.Error("deadline predicates")
	}
}

// TestNegotiationAvailabilityEstimate inspects the scheduler decision
// directly: rejections for insufficient resources carry the
// walltime-based availability estimate.
func TestNegotiationAvailabilityEstimate(t *testing.T) {
	h := newHarness(2, 8, fairness.None, nil)
	var decisions []core.DynDecision
	h.srv.OnIteration = func(ir *core.IterationResult) {
		// The result is reused by the next iteration: copy the decisions
		// and their Delays slices before retaining them.
		for _, d := range ir.DynDecisions {
			d.Delays = append([]fairness.JobDelay(nil), d.Delays...)
			decisions = append(decisions, d)
		}
	}
	blocker := &job.Job{Name: "blk", Cred: job.Credentials{User: "x"}, Cores: 8, Walltime: 2 * sim.Hour}
	h.srv.Submit(blocker, &FixedApp{Runtime: 2 * sim.Hour})
	app := &negotiatorApp{extra: 8, timeout: 0, reqAt: sim.Minute}
	j := &job.Job{Name: "neg", Cred: job.Credentials{User: "u"}, Class: job.Evolving, Cores: 8, Walltime: 3 * sim.Hour}
	h.srv.Submit(j, app)
	h.srv.Run(0)
	found := false
	for _, d := range decisions {
		if d.Req.Job.ID == j.ID && !d.Granted {
			found = true
			if d.AvailableAt != 2*sim.Hour {
				t.Errorf("availability estimate = %v, want the blocker's walltime end (2h)", d.AvailableAt)
			}
		}
	}
	if !found {
		t.Fatal("no rejection decision observed")
	}
}
