// Package rms implements the resource manager (the Torque pbs_server
// analog) for the discrete-event simulator: it owns the job queue, the
// running set, the FIFO dynamic-request queue and the job lifecycle,
// implements core.ResourceManager for the scheduler, and drives
// application behaviour models (rigid and evolving) over the
// simulation engine.
//
// The live TCP daemons in internal/serverd and internal/mom implement
// the same protocol against real sockets; this package is the
// simulation substrate the paper's testbed is substituted with.
package rms

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
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

// Server is the simulated resource manager.
type Server struct {
	eng   *sim.Engine
	cl    *cluster.Cluster
	sched *core.Scheduler
	rec   *metrics.Recorder

	// queue holds the queued jobs in submission order, active the
	// running ones in id order.
	queue  job.Queue         //schedlint:epoch-guarded by bumpQueue
	active job.RunSet        //schedlint:epoch-guarded by bump
	dyn    []*job.DynRequest //schedlint:epoch-guarded by bump
	dynSeq int

	apps      map[job.ID]App
	endEvents map[job.ID]*sim.Event
	appEvents map[job.ID][]*sim.Event

	// dynGrants tracks first-grant times for metrics.
	dynGrants map[job.ID]sim.Time

	nextID job.ID

	iterPending bool
	completed   int
	submitted   int

	// OnIteration, when set, observes every scheduler iteration result
	// (used by experiment harnesses and tests).
	OnIteration func(res *core.IterationResult)

	// EnforceWalltime cancels jobs that exceed their requested
	// walltime, as production batch systems do (the paper's intro: a
	// job may "not even be able to finish when their job's time slice
	// expires"). Enabled by default in NewServer.
	EnforceWalltime bool

	// Trace, when set, records every lifecycle event for rendering
	// with the trace package (event log / ASCII Gantt).
	Trace *trace.Log

	// FailurePolicy selects the fallback for jobs hit by node
	// failures whose application is not fault-aware (see failure.go).
	FailurePolicy FailurePolicy

	cancelled int

	// epoch/qlog implement core.ChangeTracker and core.QueueLogger:
	// epoch advances on every externally visible state mutation, qlog
	// on the subset that changes queue membership, remembering the job.
	// The scheduler's event-driven requeue and its sorted job table key
	// off them.
	epoch uint64
	qlog  core.QueueLog
}

// bump advances the state epoch after a cluster/job mutation.
func (s *Server) bump() { s.epoch++ }

// bumpQueue advances both epochs after a change of j's queue
// membership.
//
//schedlint:epoch-bump subsumes bump
func (s *Server) bumpQueue(j *job.Job) { s.epoch++; s.qlog.Bump(j) }

// StateEpoch implements core.ChangeTracker.
func (s *Server) StateEpoch() uint64 { return s.epoch }

// QueueEpoch implements core.ChangeTracker.
func (s *Server) QueueEpoch() uint64 { return s.qlog.Epoch() }

// QueueChanges implements core.QueueLogger.
func (s *Server) QueueChanges(since uint64) ([]*job.Job, bool) { return s.qlog.Since(since) }

// NewServer wires a server to an engine, cluster, scheduler and
// metrics recorder.
func NewServer(eng *sim.Engine, cl *cluster.Cluster, sched *core.Scheduler, rec *metrics.Recorder) *Server {
	return &Server{
		eng:       eng,
		cl:        cl,
		sched:     sched,
		rec:       rec,
		apps:      make(map[job.ID]App),
		endEvents: make(map[job.ID]*sim.Event),
		appEvents: make(map[job.ID][]*sim.Event),
		dynGrants: make(map[job.ID]sim.Time),
		nextID:    1,

		EnforceWalltime: true,
	}
}

// Engine returns the simulation engine driving this server.
func (s *Server) Engine() *sim.Engine { return s.eng }

// Scheduler returns the attached scheduler.
func (s *Server) Scheduler() *core.Scheduler { return s.sched }

// Recorder returns the metrics recorder.
func (s *Server) Recorder() *metrics.Recorder { return s.rec }

// Completed returns the number of jobs that finished.
func (s *Server) Completed() int { return s.completed }

// Cancelled returns the number of jobs killed (walltime or qdel).
func (s *Server) Cancelled() int { return s.cancelled }

// Submitted returns the number of jobs submitted so far.
func (s *Server) Submitted() int { return s.submitted }

// NewJobID hands out server-unique job IDs.
func (s *Server) NewJobID() job.ID {
	id := s.nextID
	s.nextID++
	return id
}

// Submit enqueues a job with its application model at the current
// virtual time and triggers a scheduling cycle. Jobs without an ID get
// one assigned.
func (s *Server) Submit(j *job.Job, app App) {
	if j.ID == 0 {
		j.ID = s.NewJobID()
	}
	now := s.eng.Now()
	j.SubmitTime = now
	j.State = job.Queued
	s.queue.Push(j)
	s.apps[j.ID] = app
	s.submitted++
	if s.rec != nil {
		s.rec.ObserveSubmit(now)
	}
	s.traceEvent(trace.Submit, j, j.Cores, "")
	s.bumpQueue(j)
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
		it := it
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
// server). Only one pending request per job is admitted, mirroring the
// mother-superior serialization in §III-B. The job enters the
// DynQueued state and a scheduling cycle is triggered.
func (s *Server) RequestDyn(j *job.Job, cores int) error {
	return s.requestDyn(&job.DynRequest{Job: j, Cores: cores, IssuedAt: s.eng.Now()})
}

// RequestDynNodes files a node-granular dynamic request (nodes × ppn).
func (s *Server) RequestDynNodes(j *job.Job, nodes, ppn int) error {
	return s.requestDyn(&job.DynRequest{Job: j, Nodes: nodes, PPN: ppn, IssuedAt: s.eng.Now()})
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
		for _, p := range s.dyn {
			if p == r {
				s.RejectDyn(r, "negotiation deadline expired")
				return
			}
		}
	})
	return nil
}

func (s *Server) requestDyn(r *job.DynRequest) error {
	j := r.Job
	if j.State != job.Running {
		return fmt.Errorf("rms: %s is %s; dynamic requests require a running job", j.ID, j.State)
	}
	for _, p := range s.dyn {
		if p.Job.ID == j.ID {
			return fmt.Errorf("rms: %s already has a pending dynamic request", j.ID)
		}
	}
	if err := r.Validate(); err != nil {
		return err
	}
	r.Seq = s.dynSeq
	s.dynSeq++
	j.State = job.DynQueued
	s.dyn = append(s.dyn, r)
	s.traceEvent(trace.DynRequest, j, r.TotalCores(), "")
	s.bump()
	s.requestIteration()
	return nil
}

// DynFree releases part of a running job's allocation (tm_dynfree /
// dyn_disjoin): any subset may be released, and freed resources become
// schedulable immediately.
func (s *Server) DynFree(j *job.Job, part cluster.Alloc) error {
	if !j.Active() {
		return fmt.Errorf("rms: %s is not active", j.ID)
	}
	if err := s.cl.ReleasePartial(j.ID, part); err != nil {
		return err
	}
	released := part.TotalCores()
	if released > j.DynCores {
		// Releasing below the original request shrinks the base.
		j.Cores -= released - j.DynCores
		j.DynCores = 0
	} else {
		j.DynCores -= released
	}
	s.observeUsage()
	s.traceEvent(trace.DynFree, j, released, "")
	s.bump()
	s.requestIteration()
	return nil
}

// ScheduleCompletion (re)arms the job's completion event at the given
// virtual time. Applications call it from OnStart and after grants.
func (s *Server) ScheduleCompletion(j *job.Job, at sim.Time) {
	if ev, ok := s.endEvents[j.ID]; ok {
		ev.Cancel()
	}
	if at < s.eng.Now() {
		at = s.eng.Now()
	}
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

func (s *Server) cancelAppEvents(id job.ID) {
	for _, ev := range s.appEvents[id] {
		ev.Cancel()
	}
	delete(s.appEvents, id)
}

// CompleteJob finishes a running job: resources are released, metrics
// recorded, fairshare charged, and a scheduling cycle triggered.
func (s *Server) CompleteJob(j *job.Job) {
	if !j.Active() {
		return
	}
	now := s.eng.Now()
	// A job that finishes while its dynamic request is still pending
	// abandons the request.
	s.dropDynRequest(j.ID)
	s.cl.Release(j.ID)
	s.active.Remove(j.ID)
	if ev, ok := s.endEvents[j.ID]; ok {
		ev.Cancel()
		delete(s.endEvents, j.ID)
	}
	s.cancelAppEvents(j.ID)
	j.State = job.Completed
	j.EndTime = now
	s.completed++
	if s.rec != nil {
		grantAt, granted := s.dynGrants[j.ID]
		s.rec.AddJob(metrics.JobRecord{
			ID: j.ID, Type: jobType(j), User: j.Cred.User, Cores: j.TotalCores(),
			Submit: j.SubmitTime, Start: j.StartTime, End: now,
			Backfilled: j.Backfilled, Evolving: j.Class == job.Evolving,
			DynGranted: granted, GrantTime: grantAt,
		})
		s.observeUsage()
	}
	s.sched.Fairshare().Record(j.Cred.User, float64(j.TotalCores())*sim.SecondsOf(now-j.StartTime))
	s.traceEvent(trace.Complete, j, j.TotalCores(), "")
	s.bump()
	s.requestIteration()
}

// jobType derives the workload type tag from the job name ("L.12" → "L").
func jobType(j *job.Job) string {
	if i := strings.IndexByte(j.Name, '.'); i > 0 {
		return j.Name[:i]
	}
	return j.Name
}

func (s *Server) observeUsage() {
	if s.rec != nil {
		s.rec.ObserveUsage(s.eng.Now(), s.cl.UsedCores())
	}
}

// traceEvent records a lifecycle event when tracing is enabled.
func (s *Server) traceEvent(k trace.Kind, j *job.Job, cores int, note string) {
	if s.Trace == nil {
		return
	}
	name := ""
	if j != nil {
		name = j.Name
		if name == "" {
			name = j.ID.String()
		}
	}
	s.Trace.Add(trace.Event{At: s.eng.Now(), Kind: k, Job: name, Cores: cores, Note: note})
}

func (s *Server) dropDynRequest(id job.ID) {
	for i, r := range s.dyn {
		if r.Job.ID == id {
			s.dyn = append(s.dyn[:i], s.dyn[i+1:]...)
			return
		}
	}
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
		// Results are consumed synchronously (observers copy what they
		// keep); recycling stops steady-state iteration garbage.
		s.sched.Recycle(res)
	})
}

// --- core.ResourceManager implementation ---

// Cluster returns the managed cluster.
func (s *Server) Cluster() *cluster.Cluster { return s.cl }

// QueuedJobs returns the queued static jobs (submission order).
func (s *Server) QueuedJobs() []*job.Job {
	return s.queue.Jobs()
}

// ActiveJobs returns running and dynqueued jobs in ID order.
func (s *Server) ActiveJobs() []*job.Job {
	return s.active.Jobs()
}

// DynRequests returns pending dynamic requests in FIFO order.
func (s *Server) DynRequests() []*job.DynRequest {
	return append([]*job.DynRequest(nil), s.dyn...)
}

// StartJob allocates and starts a queued job (scheduler callback).
func (s *Server) StartJob(j *job.Job) (cluster.Alloc, error) {
	alloc := s.cl.Allocate(j.ID, j.Cores)
	if alloc == nil {
		return nil, fmt.Errorf("rms: cannot place %d cores for %s", j.Cores, j.ID)
	}
	now := s.eng.Now()
	s.queue.Remove(j)
	j.State = job.Running
	j.StartTime = now
	s.active.Add(j)
	s.bumpQueue(j)
	s.observeUsage()
	if j.Backfilled {
		s.traceEvent(trace.Backfill, j, j.Cores, "")
	} else {
		s.traceEvent(trace.Start, j, j.Cores, "")
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
// are dropped from the queue; active jobs release their resources. The
// job is recorded in metrics with its cancellation time.
func (s *Server) CancelJob(j *job.Job) {
	now := s.eng.Now()
	switch {
	case j.State == job.Queued:
		s.queue.Remove(j)
		s.bumpQueue(j)
	case j.Active():
		s.dropDynRequest(j.ID)
		s.cl.Release(j.ID)
		s.active.Remove(j.ID)
		if ev, ok := s.endEvents[j.ID]; ok {
			ev.Cancel()
			delete(s.endEvents, j.ID)
		}
		s.cancelAppEvents(j.ID)
		s.sched.Fairshare().Record(j.Cred.User, float64(j.TotalCores())*sim.SecondsOf(now-j.StartTime))
		s.observeUsage()
		// The bump must follow the mutations: bumping first would let a
		// scheduler cache validated against the new epoch serve the
		// pre-cancellation active set.
		s.bump()
	default:
		return
	}
	j.State = job.Cancelled
	j.EndTime = now
	s.cancelled++
	s.traceEvent(trace.Cancel, j, j.TotalCores(), "")
	s.requestIteration()
}

// GrantDyn expands a job's allocation per the request (scheduler
// callback) and notifies the application (the tm_dynget reply with the
// new hostlist, Fig. 3 step 6-7).
func (s *Server) GrantDyn(r *job.DynRequest) (cluster.Alloc, error) {
	var alloc cluster.Alloc
	if r.Nodes > 0 {
		alloc = s.cl.AllocateNodes(r.Job.ID, r.Nodes, r.PPN)
	} else {
		alloc = s.cl.Allocate(r.Job.ID, r.Cores)
	}
	if alloc == nil {
		return nil, fmt.Errorf("rms: cannot place dynamic request for %s", r.Job.ID)
	}
	now := s.eng.Now()
	r.Job.DynCores += r.TotalCores()
	r.Job.State = job.Running
	if _, ok := s.dynGrants[r.Job.ID]; !ok {
		s.dynGrants[r.Job.ID] = now
	}
	s.dropDynRequest(r.Job.ID)
	s.bump()
	s.observeUsage()
	s.traceEvent(trace.DynGrant, r.Job, r.TotalCores(), alloc.String())
	if app := s.apps[r.Job.ID]; app != nil {
		app.OnDynResult(s, r.Job, true, now)
	}
	return alloc, nil
}

// RejectDyn declines a request (scheduler callback); the application
// continues on its current allocation and may retry later.
func (s *Server) RejectDyn(r *job.DynRequest, reason string) {
	r.Job.State = job.Running
	s.dropDynRequest(r.Job.ID)
	s.bump()
	s.traceEvent(trace.DynReject, r.Job, r.TotalCores(), reason)
	if app := s.apps[r.Job.ID]; app != nil {
		app.OnDynResult(s, r.Job, false, s.eng.Now())
	}
}

// Preempt stops a running job and requeues it (scheduler callback,
// PREEMPTPOLICY REQUEUE). The restarted job runs from scratch.
func (s *Server) Preempt(j *job.Job) error {
	if !j.Active() {
		return fmt.Errorf("rms: %s is not active", j.ID)
	}
	now := s.eng.Now()
	s.dropDynRequest(j.ID)
	s.cl.Release(j.ID)
	s.active.Remove(j.ID)
	if ev, ok := s.endEvents[j.ID]; ok {
		ev.Cancel()
		delete(s.endEvents, j.ID)
	}
	s.cancelAppEvents(j.ID)
	j.State = job.Queued
	j.StartTime = 0
	j.DynCores = 0
	j.Backfilled = false
	s.queue.Push(j)
	s.bumpQueue(j)
	s.observeUsage()
	s.traceEvent(trace.Preempt, j, j.Cores, "")
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
