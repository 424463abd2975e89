package rms

import (
	"repro/internal/job"
	"repro/internal/sim"
)

// FixedApp models a rigid application: it runs for a fixed duration
// and never requests resources. With Checkpointable set, progress
// survives preemption: the restarted job resumes from its checkpoint
// instead of recomputing from scratch.
type FixedApp struct {
	Runtime        sim.Duration
	Checkpointable bool

	startedAt   sim.Time
	remaining   sim.Duration
	initialized bool
}

// Remaining returns the work left as of the last start/preempt event.
func (a *FixedApp) Remaining() sim.Duration {
	if !a.initialized {
		return a.Runtime
	}
	return a.remaining
}

// OnStart schedules the completion after the (remaining) runtime.
func (a *FixedApp) OnStart(s *Server, j *job.Job, now sim.Time) {
	if !a.initialized || !a.Checkpointable {
		a.remaining = a.Runtime
		a.initialized = true
	}
	a.startedAt = now
	s.ScheduleCompletion(j, now+a.remaining)
}

// OnDynResult is never invoked for rigid jobs.
func (a *FixedApp) OnDynResult(*Server, *job.Job, bool, sim.Time) {}

// OnPreempt records a checkpoint when enabled; otherwise the restart
// recomputes everything.
func (a *FixedApp) OnPreempt(s *Server, j *job.Job, now sim.Time) {
	if !a.Checkpointable {
		return
	}
	a.remaining = max(0, a.remaining-(now-a.startedAt))
}

// EvolvingApp models the paper's evolving-job behaviour (§IV-B,
// calibrated on Quadflow's Cylinder case): the application runs for
// SET seconds on its initial allocation; at AttemptFracs[0]·SET it
// requests ExtraCores additional cores. If rejected it retries at the
// subsequent attempt fractions; after the last rejection it completes
// at SET. When a request is granted at elapsed time t, the remaining
// work accelerates so that a grant at the *first* attempt finishes at
// exactly DET:
//
//	speedup  s = (SET − DET) / (SET − t₁)        t₁ = AttemptFracs[0]·SET
//	end(t)     = t + (SET − t)·(1 − s)
type EvolvingApp struct {
	SET        sim.Duration
	DET        sim.Duration
	ExtraCores int
	// AttemptFracs are the fractions of SET at which dynamic requests
	// are issued (the paper uses 0.16 and 0.25).
	AttemptFracs []float64

	// runtime state (reset on every start)
	startAt sim.Time
	attempt int
	granted bool
}

// DefaultAttemptFracs are the paper's request points: 16% of the
// static execution time, with a second chance at 25%.
func DefaultAttemptFracs() []float64 { return []float64{0.16, 0.25} }

// Granted reports whether the app obtained its dynamic resources.
func (a *EvolvingApp) Granted() bool { return a.granted }

// OnStart resets state, arms the SET-completion and the first request.
func (a *EvolvingApp) OnStart(s *Server, j *job.Job, now sim.Time) {
	a.startAt = now
	a.attempt = 0
	a.granted = false
	s.ScheduleCompletion(j, now+a.SET)
	a.armAttempt(s, j)
}

func (a *EvolvingApp) armAttempt(s *Server, j *job.Job) {
	if a.attempt >= len(a.AttemptFracs) {
		return
	}
	frac := a.AttemptFracs[a.attempt]
	at := max(a.startAt+sim.Duration(frac*float64(a.SET)), s.eng.Now())
	s.ScheduleAppEvent(j, at, "dynget attempt", func(now sim.Time) {
		if j.State != job.Running || a.granted {
			return
		}
		// The request may race with completion; ignore errors (e.g. a
		// pending request from a previous attempt).
		_ = s.RequestDyn(j, a.ExtraCores)
	})
}

// OnDynResult accelerates the job on a grant, or arms the next attempt
// on a rejection.
func (a *EvolvingApp) OnDynResult(s *Server, j *job.Job, granted bool, now sim.Time) {
	if granted {
		a.granted = true
		end := a.startAt + a.EndAfterGrant(now-a.startAt)
		s.ScheduleCompletion(j, end)
		return
	}
	a.attempt++
	a.armAttempt(s, j)
}

// EndAfterGrant returns the total runtime if the grant lands at
// elapsed time t. A grant at the first attempt point yields exactly
// DET; later grants recover proportionally less.
func (a *EvolvingApp) EndAfterGrant(t sim.Duration) sim.Duration {
	if t >= a.SET {
		return a.SET
	}
	t1 := sim.Duration(a.AttemptFracs[0] * float64(a.SET))
	if a.SET <= t1 {
		return a.SET
	}
	s := float64(a.SET-a.DET) / float64(a.SET-t1)
	rem := max(0, float64(a.SET-t)*(1-s))
	return t + sim.Duration(rem)
}

// OnPreempt resets progress; the job restarts from scratch.
func (a *EvolvingApp) OnPreempt(s *Server, j *job.Job, now sim.Time) {
	a.attempt = 0
	a.granted = false
}
