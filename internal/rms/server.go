// Package rms implements the resource manager (the Torque pbs_server
// analog) for the discrete-event simulator: it runs the shared job
// lifecycle (core.Lifecycle) as core.ResourceManager for the scheduler,
// and drives application behaviour models (rigid, evolving, malleable)
// over the simulation engine.
//
// The live TCP daemons in internal/serverd and internal/mom implement
// the same protocol against real sockets; this package is the
// simulation substrate the paper's testbed is substituted with.
package rms

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// App models the runtime behaviour of a job's application: when the
// job starts, the app schedules its own completion (and any dynamic
// requests) on the engine via the server's scheduling primitives.
type App interface {
	// OnStart is invoked when the job's resources are allocated and
	// the application launches. Implementations must arrange for
	// Server.CompleteJob to eventually run (via ScheduleCompletion).
	OnStart(s *Server, j *job.Job, now sim.Time)
	// OnDynResult is invoked when a dynamic request of this job is
	// granted or rejected.
	OnDynResult(s *Server, j *job.Job, granted bool, now sim.Time)
	// OnPreempt is invoked when the job is preempted and requeued;
	// pending app events should be considered void (the server cancels
	// the completion event itself).
	OnPreempt(s *Server, j *job.Job, now sim.Time)
}

// Server is the simulated resource manager: the shared job lifecycle
// (core.Lifecycle, whose Trace field records the schedule) with the
// simulator's side effects — engine events, application callbacks and
// scheduling cycles — around each transition.
type Server struct {
	core.Lifecycle

	eng   *sim.Engine
	sched *core.Scheduler

	apps      map[job.ID]App
	endEvents map[job.ID]*sim.Event
	appEvents map[job.ID][]*sim.Event

	iterPending bool

	// OnIteration, when set, observes every scheduler iteration result
	// (used by experiment harnesses and tests). The result is valid only
	// during the call: observers copy what they keep.
	OnIteration func(res *core.IterationResult)

	// EnforceWalltime cancels jobs that exceed their requested
	// walltime, as production batch systems do (the paper's intro: a
	// job may "not even be able to finish when their job's time slice
	// expires"). Enabled by default in NewServer.
	EnforceWalltime bool

	// FailurePolicy selects the fallback for jobs hit by node
	// failures whose application is not fault-aware (see failure.go).
	FailurePolicy FailurePolicy
}

// NewServer wires a server to an engine, cluster, scheduler and
// metrics recorder.
func NewServer(eng *sim.Engine, cl *cluster.Cluster, sched *core.Scheduler, rec *metrics.Recorder) *Server {
	return &Server{
		Lifecycle: core.NewLifecycle(cl, sched.Fairshare(), rec),
		eng:       eng,
		sched:     sched,
		apps:      make(map[job.ID]App),
		endEvents: make(map[job.ID]*sim.Event),
		appEvents: make(map[job.ID][]*sim.Event),

		EnforceWalltime: true,
	}
}

// Scheduler returns the attached scheduler.
func (s *Server) Scheduler() *core.Scheduler { return s.sched }

// Submit enqueues a job with its application model at the current
// virtual time and triggers a scheduling cycle. Jobs without an ID get
// one assigned.
func (s *Server) Submit(j *job.Job, app App) {
	s.Lifecycle.Submit(j, s.eng.Now())
	s.apps[j.ID] = app
	s.requestIteration()
}

// SubmitAt schedules a submission at a future virtual time. The event
// is handle-free and its label static: submissions happen hundreds of
// thousands of times per campaign and must not allocate beyond the
// closure itself.
func (s *Server) SubmitAt(at sim.Time, j *job.Job, app App) {
	s.eng.ScheduleAt(at, "submit", func(sim.Time) {
		s.Submit(j, app)
	})
}

// SubmitBatch schedules many future submissions in one engine batch —
// the O(n) bulk-load path for workload generators that lay out a whole
// experiment's arrivals up front. Items at time zero submit
// immediately, preserving SubmitAll's original interleaving.
func (s *Server) SubmitBatch(items []SubmitItem) {
	batch := make([]sim.Timed, 0, len(items))
	for _, it := range items {
		if it.At <= s.eng.Now() {
			s.Submit(it.Job, it.App)
			continue
		}
		batch = append(batch, sim.Timed{At: it.At, Label: "submit", Fn: func(sim.Time) {
			s.Submit(it.Job, it.App)
		}})
	}
	s.eng.ScheduleBatch(batch)
}

// SubmitItem is one entry of a SubmitBatch call.
type SubmitItem struct {
	At  sim.Time
	Job *job.Job
	App App
}

// RequestDyn files a dynamic allocation request on behalf of a running
// job (the tm_dynget path: application → mom → mother superior →
// server). The job enters the DynQueued state and a scheduling cycle
// is triggered.
func (s *Server) RequestDyn(j *job.Job, cores int) error {
	return s.requestDyn(&job.DynRequest{Job: j, Cores: cores, IssuedAt: s.eng.Now()})
}

// RequestDynTimeout files a negotiable dynamic request (§III-C's
// negotiation protocol): instead of an immediate verdict, the request
// stays queued until it can be granted or until timeout elapses, at
// which point the application is rejected with the batch system's
// availability estimate.
func (s *Server) RequestDynTimeout(j *job.Job, cores int, timeout sim.Duration) error {
	if timeout <= 0 {
		return s.RequestDyn(j, cores)
	}
	now := s.eng.Now()
	r := &job.DynRequest{Job: j, Cores: cores, IssuedAt: now, Deadline: now + timeout}
	if err := s.requestDyn(r); err != nil {
		return err
	}
	s.eng.ScheduleAt(r.Deadline, "dyn deadline", func(sim.Time) {
		// Still pending at the deadline: deliver the final rejection.
		if s.PendingDyn(j.ID) == r {
			s.RejectDyn(r, "negotiation deadline expired")
		}
	})
	return nil
}

func (s *Server) requestDyn(r *job.DynRequest) error {
	if err := s.QueueDyn(r); err != nil {
		return err
	}
	s.requestIteration()
	return nil
}

// DynFree releases part of a running job's allocation (tm_dynfree /
// dyn_disjoin): any subset may be released, and freed resources become
// schedulable immediately.
func (s *Server) DynFree(j *job.Job, part cluster.Alloc) error {
	if err := s.Release(j, part, s.eng.Now()); err != nil {
		return err
	}
	s.requestIteration()
	return nil
}

// ScheduleCompletion (re)arms the job's completion event at the given
// virtual time. Applications call it from OnStart and after grants.
func (s *Server) ScheduleCompletion(j *job.Job, at sim.Time) {
	if ev, ok := s.endEvents[j.ID]; ok {
		ev.Cancel()
	}
	at = max(at, s.eng.Now())
	s.endEvents[j.ID] = s.eng.At(at, "complete", func(sim.Time) {
		s.CompleteJob(j)
	})
}

// ScheduleAppEvent registers an application callback at a future time,
// tied to the job: preemption or completion voids it.
func (s *Server) ScheduleAppEvent(j *job.Job, at sim.Time, label string, fn func(now sim.Time)) {
	ev := s.eng.At(at, label, fn)
	s.appEvents[j.ID] = append(s.appEvents[j.ID], ev)
}

// dropEvents voids the job's completion and application events.
func (s *Server) dropEvents(id job.ID) {
	if ev, ok := s.endEvents[id]; ok {
		ev.Cancel()
		delete(s.endEvents, id)
	}
	for _, ev := range s.appEvents[id] {
		ev.Cancel()
	}
	delete(s.appEvents, id)
}

// CompleteJob finishes a running job: resources are released, metrics
// recorded, fairshare charged, and a scheduling cycle triggered.
func (s *Server) CompleteJob(j *job.Job) {
	if !s.Complete(j, s.eng.Now()) {
		return
	}
	s.dropEvents(j.ID)
	s.requestIteration()
}

// requestIteration schedules a scheduling cycle at the current virtual
// time (deduplicated), mirroring Maui's instant wakeup on job or
// resource state changes.
func (s *Server) requestIteration() {
	if s.iterPending {
		return
	}
	s.iterPending = true
	s.eng.ScheduleAt(s.eng.Now(), "maui iteration", func(now sim.Time) {
		s.iterPending = false
		res := s.sched.Iterate(now, s)
		if s.OnIteration != nil {
			s.OnIteration(res)
		}
	})
}

// --- core.ResourceManager: the scheduler's callbacks ---

// StartJob allocates and starts a queued job.
func (s *Server) StartJob(j *job.Job) (cluster.Alloc, error) {
	now := s.eng.Now()
	alloc, err := s.Start(j, 0, 0, now, nil)
	if err != nil {
		return nil, err
	}
	if app := s.apps[j.ID]; app != nil {
		app.OnStart(s, j, now)
	} else {
		// No app model: run to walltime.
		s.ScheduleCompletion(j, now+j.Walltime)
	}
	if s.EnforceWalltime && j.Walltime > 0 {
		s.ScheduleAppEvent(j, now+j.Walltime, "walltime kill", func(sim.Time) {
			if j.Active() {
				s.CancelJob(j)
			}
		})
	}
	return alloc, nil
}

// CancelJob terminates a job (walltime expiry or qdel). Queued jobs
// are dropped from the queue; active jobs release their resources and
// are charged for what they used.
func (s *Server) CancelJob(j *job.Job) {
	if !s.Cancel(j, s.eng.Now()) {
		return
	}
	s.dropEvents(j.ID)
	s.requestIteration()
}

// GrantDyn expands a job's allocation per the request and notifies the
// application (the tm_dynget reply with the new hostlist, Fig. 3 step
// 6-7).
func (s *Server) GrantDyn(r *job.DynRequest) (cluster.Alloc, error) {
	now := s.eng.Now()
	alloc, err := s.Grant(r, now)
	if err != nil {
		return nil, err
	}
	if app := s.apps[r.Job.ID]; app != nil {
		app.OnDynResult(s, r.Job, true, now)
	}
	return alloc, nil
}

// RejectDyn declines a request; the application continues on its
// current allocation and may retry later.
func (s *Server) RejectDyn(r *job.DynRequest, reason string) {
	s.Reject(r, reason, s.eng.Now())
	if app := s.apps[r.Job.ID]; app != nil {
		app.OnDynResult(s, r.Job, false, s.eng.Now())
	}
}

// Preempt stops a running job and requeues it (PREEMPTPOLICY
// REQUEUE). The restarted job runs from scratch.
func (s *Server) Preempt(j *job.Job) error {
	now := s.eng.Now()
	if err := s.Requeue(j, now); err != nil {
		return err
	}
	s.dropEvents(j.ID)
	if app := s.apps[j.ID]; app != nil {
		app.OnPreempt(s, j, now)
	}
	return nil
}

// Run drives the simulation until the event queue drains; limit guards
// against runaway models (0 = unlimited).
func (s *Server) Run(limit uint64) {
	s.eng.Run(limit)
}
