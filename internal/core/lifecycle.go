package core

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Lifecycle is the job lifecycle of the paper's pbs_server, written
// once for both resource managers — the simulator's rms.Server and the
// live daemon's serverd. It owns the cluster, the queue, the running
// set, the FIFO dynamic-request queue, the epochs the scheduler's
// caches key off, the usage recorder and the job counts, and performs
// every transition among them with its epoch bump: submit, start (and
// its rollback), dynamic request, grant, reject, partial release,
// requeue, cancel, complete, and the loss of a failed node's cores —
// and records each in its trace, once, when it has one.
//
// An RM embeds it, which gives it the read half of ResourceManager,
// ChangeTracker and QueueLogger, and wraps each transition in its own
// side effects only: engine events and application callbacks in the
// simulator, timers and mom messages in the daemon. Not safe for
// concurrent use; it shares the RM's own synchronisation.
type Lifecycle struct {
	cl  *cluster.Cluster
	fs  *Fairshare        // charged for the core-seconds of every ended run; may be nil
	rec *metrics.Recorder // may be nil

	queue  job.Queue         //schedlint:epoch-guarded by bumpQueue
	active job.RunSet        //schedlint:epoch-guarded by Bump
	dyn    []*job.DynRequest //schedlint:epoch-guarded by Bump
	dynSeq int
	// grants holds the time of each live job's first dynamic grant,
	// for its completion record.
	grants map[job.ID]sim.Time

	nextID                          job.ID
	submitted, completed, cancelled int

	// epoch advances on every scheduler-visible mutation, qlog on the
	// subset that changes queue membership, remembering the job.
	epoch uint64
	qlog  QueueLog

	// OnBump, when set, observes every epoch advance with the job it
	// was about (nil for a node-only change) and whether that job's
	// queue membership changed.
	OnBump func(j *job.Job, queueMove bool)

	// Trace, when set, is the sink of the lifecycle's records: one per
	// transition performed. Nil means off, at the cost of a nil check.
	Trace *trace.Log
}

// NewLifecycle returns an empty lifecycle over cl that charges
// fairshare usage to fs and records jobs and usage in rec; either may
// be nil.
func NewLifecycle(cl *cluster.Cluster, fs *Fairshare, rec *metrics.Recorder) Lifecycle {
	return Lifecycle{cl: cl, fs: fs, rec: rec, grants: make(map[job.ID]sim.Time), nextID: 1}
}

// Cluster returns the managed cluster.
func (l *Lifecycle) Cluster() *cluster.Cluster { return l.cl }

// QueuedJobs returns the queued jobs in submission order.
func (l *Lifecycle) QueuedJobs() []*job.Job { return l.queue.Jobs() }

// ActiveJobs returns the running and dynqueued jobs in ID order, in the
// running set's own slice: read-only, valid until the next transition.
func (l *Lifecycle) ActiveJobs() []*job.Job { return l.active.Jobs() }

// DynRequests returns the pending dynamic requests in FIFO order.
func (l *Lifecycle) DynRequests() []*job.DynRequest {
	return append([]*job.DynRequest(nil), l.dyn...)
}

// PendingDyn returns job id's pending dynamic request, or nil.
func (l *Lifecycle) PendingDyn(id job.ID) *job.DynRequest {
	for _, r := range l.dyn {
		if r.Job.ID == id {
			return r
		}
	}
	return nil
}

// StateEpoch implements ChangeTracker.
func (l *Lifecycle) StateEpoch() uint64 { return l.epoch }

// QueueEpoch implements ChangeTracker.
func (l *Lifecycle) QueueEpoch() uint64 { return l.qlog.Epoch() }

// QueueChanges implements QueueLogger.
func (l *Lifecycle) QueueChanges(since uint64) ([]*job.Job, bool) { return l.qlog.Since(since) }

// Recorder returns the metrics recorder.
func (l *Lifecycle) Recorder() *metrics.Recorder { return l.rec }

// SetRecorder replaces the metrics recorder.
func (l *Lifecycle) SetRecorder(rec *metrics.Recorder) { l.rec = rec }

// Submitted returns the number of jobs submitted so far.
func (l *Lifecycle) Submitted() int { return l.submitted }

// Completed returns the number of jobs that finished.
func (l *Lifecycle) Completed() int { return l.completed }

// Cancelled returns the number of jobs killed (walltime or qdel).
func (l *Lifecycle) Cancelled() int { return l.cancelled }

// Bump advances the state epoch after a mutation the scheduler must
// see; j is the job it was about, nil for a change of nodes.
func (l *Lifecycle) Bump(j *job.Job) {
	l.epoch++
	if l.OnBump != nil {
		l.OnBump(j, false)
	}
}

// bumpQueue advances both epochs after a change of j's queue
// membership.
//
//schedlint:epoch-bump subsumes Bump
func (l *Lifecycle) bumpQueue(j *job.Job) {
	l.epoch++
	l.qlog.Bump(j)
	if l.OnBump != nil {
		l.OnBump(j, true)
	}
}

// emit records transition k of j, with cores cores, in the trace.
func (l *Lifecycle) emit(now sim.Time, k trace.Kind, j *job.Job, cores int) {
	if l.Trace != nil {
		l.Trace.Append(now, k, j.ID, j.Name, cores)
	}
}

// NodeEvent records node nodeID going down (trace.NodeDown) or coming
// back (trace.NodeUp) in the trace.
func (l *Lifecycle) NodeEvent(k trace.Kind, nodeID int, now sim.Time) {
	if l.Trace != nil {
		l.Trace.AppendNode(now, k, nodeID)
	}
}

func (l *Lifecycle) observeUsage(now sim.Time) {
	if l.rec != nil {
		l.rec.ObserveUsage(now, l.cl.UsedCores())
	}
}

// place allocates nodes×ppn cores to job id when nodes > 0, else cores
// cores; nil when they do not fit.
func (l *Lifecycle) place(id job.ID, nodes, ppn, cores int) cluster.Alloc {
	if nodes > 0 {
		return l.cl.AllocateNodes(id, nodes, ppn)
	}
	return l.cl.Allocate(id, cores)
}

// Submit files j at the tail of the queue, giving it an ID if it has
// none.
func (l *Lifecycle) Submit(j *job.Job, now sim.Time) {
	if j.ID == 0 {
		j.ID = l.nextID
		l.nextID++
	}
	j.SubmitTime = now
	j.State = job.Queued
	l.queue.Push(j)
	l.submitted++
	if l.rec != nil {
		l.rec.ObserveSubmit(now)
	}
	l.bumpQueue(j)
	l.emit(now, trace.Submit, j, j.Cores)
}

// Start places queued j — nodes×ppn cores when nodes > 0, else j.Cores
// — and moves it to the running set. admit, when set, sees the
// placement first; an error from it undoes the placement and is
// returned, changing nothing else.
func (l *Lifecycle) Start(j *job.Job, nodes, ppn int, now sim.Time, admit func(cluster.Alloc) error) (cluster.Alloc, error) {
	if j.State != job.Queued {
		return nil, fmt.Errorf("core: %s is %s, not queued", j.ID, j.State)
	}
	alloc := l.place(j.ID, nodes, ppn, j.Cores)
	if alloc == nil {
		return nil, fmt.Errorf("core: cannot place %d cores for %s", j.Cores, j.ID)
	}
	if admit != nil {
		if err := admit(alloc); err != nil {
			l.cl.Release(j.ID)
			return nil, err
		}
	}
	l.queue.Remove(j)
	j.State = job.Running
	j.StartTime = now
	l.active.Add(j)
	l.observeUsage(now)
	l.bumpQueue(j)
	if j.Backfilled {
		l.emit(now, trace.Backfill, j, j.Cores)
	} else {
		l.emit(now, trace.Start, j, j.Cores)
	}
	return alloc, nil
}

// Unstart takes back the Start of a job whose launch failed: it gives
// up its cores and rejoins the queue at the tail, recorded as a
// preemption. The rollback is a second round of mutations after
// Start's, with its own bump — without it a cache validated against
// Start's epoch would keep serving the job as started.
func (l *Lifecycle) Unstart(j *job.Job, now sim.Time) {
	l.cl.Release(j.ID)
	l.active.Remove(j.ID)
	j.State = job.Queued
	j.StartTime = 0
	l.queue.Push(j)
	l.observeUsage(now)
	l.bumpQueue(j)
	l.emit(now, trace.Preempt, j, j.Cores)
}

// QueueDyn files r, a running job's tm_dynget, at the tail of the FIFO
// dynamic-request queue; the job enters DynQueued until the request
// resolves, so it has at most one pending, mirroring the
// mother-superior serialisation of §III-B.
func (l *Lifecycle) QueueDyn(r *job.DynRequest) error {
	j := r.Job
	if j.State != job.Running {
		return fmt.Errorf("core: %s is %s; dynamic requests require a running job", j.ID, j.State)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	r.Seq = l.dynSeq
	l.dynSeq++
	j.State = job.DynQueued
	l.dyn = append(l.dyn, r)
	l.Bump(j)
	l.emit(r.IssuedAt, trace.DynRequest, j, r.TotalCores())
	return nil
}

// Grant places r's cores, adds them to its job's allocation and
// resolves the request.
func (l *Lifecycle) Grant(r *job.DynRequest, now sim.Time) (cluster.Alloc, error) {
	j := r.Job
	alloc := l.place(j.ID, r.Nodes, r.PPN, r.Cores)
	if alloc == nil {
		return nil, fmt.Errorf("core: cannot place dynamic request for %s", j.ID)
	}
	j.DynCores += r.TotalCores()
	j.State = job.Running
	if _, ok := l.grants[j.ID]; !ok {
		l.grants[j.ID] = now
	}
	l.dropDyn(j.ID)
	l.observeUsage(now)
	l.Bump(j)
	if l.Trace != nil {
		l.Trace.AppendGrant(now, j.ID, j.Name, r.TotalCores(), alloc)
	}
	return alloc, nil
}

// Reject resolves r without cores, for reason; its job runs on as it
// was.
func (l *Lifecycle) Reject(r *job.DynRequest, reason string, now sim.Time) {
	j := r.Job
	j.State = job.Running
	l.dropDyn(j.ID)
	l.Bump(j)
	if l.Trace != nil {
		l.Trace.AppendReject(now, j.ID, j.Name, r.TotalCores(), reason)
	}
}

// Grow places cores more cores for running j (a malleable grow).
func (l *Lifecycle) Grow(j *job.Job, cores int, now sim.Time) (cluster.Alloc, error) {
	alloc := l.place(j.ID, 0, 0, cores)
	if alloc == nil {
		return nil, fmt.Errorf("core: cannot place %d cores for %s", cores, j.ID)
	}
	j.DynCores += cores
	l.observeUsage(now)
	l.Bump(j)
	l.emit(now, trace.Grow, j, cores)
	return alloc, nil
}

// Release frees part of active j's allocation: tm_dynfree's
// dyn_disjoin, which may give back any subset.
func (l *Lifecycle) Release(j *job.Job, part cluster.Alloc, now sim.Time) error {
	if err := l.release(j, part, now); err != nil {
		return err
	}
	l.emit(now, trace.DynFree, j, part.TotalCores())
	return nil
}

// Shrink frees part of active j's allocation: a malleable shrink.
func (l *Lifecycle) Shrink(j *job.Job, part cluster.Alloc, now sim.Time) error {
	if err := l.release(j, part, now); err != nil {
		return err
	}
	l.emit(now, trace.Shrink, j, part.TotalCores())
	return nil
}

// release frees part of active j's allocation, unrecorded: the loss of
// a failed node's cores is recorded as the node's failure. The cores
// come off j's dynamic cores first and then off its base request.
func (l *Lifecycle) release(j *job.Job, part cluster.Alloc, now sim.Time) error {
	if !j.Active() {
		return fmt.Errorf("core: %s is not active", j.ID)
	}
	if err := l.cl.ReleasePartial(j.ID, part); err != nil {
		return err
	}
	n := part.TotalCores()
	if n > j.DynCores {
		j.Cores -= n - j.DynCores
		j.DynCores = 0
	} else {
		j.DynCores -= n
	}
	l.observeUsage(now)
	l.Bump(j)
	return nil
}

// CoresOn returns the cores job id holds on node nodeID.
func (l *Lifecycle) CoresOn(id job.ID, nodeID int) int {
	n := 0
	for _, s := range l.cl.AllocOf(id) {
		if s.NodeID == nodeID {
			n += s.Cores
		}
	}
	return n
}

// JobsOn returns the active jobs holding cores on node nodeID, in ID
// order. It scans the running set: a node failure is rare, and the
// cluster keeps no per-node owners.
func (l *Lifecycle) JobsOn(nodeID int) []*job.Job {
	var out []*job.Job
	for _, j := range l.active.Jobs() {
		if l.CoresOn(j.ID, nodeID) > 0 {
			out = append(out, j)
		}
	}
	return out
}

// StripNode releases the cores j holds on node nodeID, lost with the
// node, and returns how many there were.
func (l *Lifecycle) StripNode(j *job.Job, nodeID int, now sim.Time) int {
	lost := l.CoresOn(j.ID, nodeID)
	if lost == 0 || l.release(j, cluster.Alloc{{NodeID: nodeID, Cores: lost}}, now) != nil {
		return 0
	}
	return lost
}

// Requeue stops active j and puts it back at the tail of the queue to
// restart from scratch: a preemption, or a job a failed node took down.
func (l *Lifecycle) Requeue(j *job.Job, now sim.Time) error {
	if !j.Active() {
		return fmt.Errorf("core: %s is not active", j.ID)
	}
	l.stop(j)
	j.State = job.Queued
	j.StartTime = 0
	j.DynCores = 0
	j.Backfilled = false
	l.queue.Push(j)
	l.observeUsage(now)
	l.bumpQueue(j)
	l.emit(now, trace.Preempt, j, j.Cores)
	return nil
}

// Cancel ends queued or active j (qdel, a walltime kill, a failed
// node). An active job gives up its cores and is charged for the
// core-seconds it used. It reports whether j was either.
func (l *Lifecycle) Cancel(j *job.Job, now sim.Time) bool {
	switch {
	case j.State == job.Queued:
		l.queue.Remove(j)
		l.cancel(j, now)
		l.bumpQueue(j)
	case j.Active():
		l.stop(j)
		l.charge(j, now)
		l.observeUsage(now)
		l.cancel(j, now)
		l.Bump(j)
	default:
		return false
	}
	l.emit(now, trace.Cancel, j, j.TotalCores())
	return true
}

func (l *Lifecycle) cancel(j *job.Job, now sim.Time) {
	j.State = job.Cancelled
	j.EndTime = now
	l.cancelled++
	delete(l.grants, j.ID)
}

// Complete finishes active j: it gives up its cores, is recorded, and
// is charged for the core-seconds it used. It reports whether j was
// active.
func (l *Lifecycle) Complete(j *job.Job, now sim.Time) bool {
	if !j.Active() {
		return false
	}
	l.stop(j)
	j.State = job.Completed
	j.EndTime = now
	l.completed++
	if l.rec != nil {
		grantAt, granted := l.grants[j.ID]
		l.rec.AddJob(metrics.JobRecord{
			ID: j.ID, Type: jobType(j.Name), User: j.Cred.User, Cores: j.TotalCores(),
			Submit: j.SubmitTime, Start: j.StartTime, End: now,
			Backfilled: j.Backfilled, Evolving: j.Class == job.Evolving,
			DynGranted: granted, GrantTime: grantAt,
		})
		l.observeUsage(now)
	}
	delete(l.grants, j.ID)
	l.charge(j, now)
	l.Bump(j)
	l.emit(now, trace.Complete, j, j.TotalCores())
	return true
}

// stop takes active j out of the running set with its cores, dropping
// any request it had pending: a job that ends abandons it.
func (l *Lifecycle) stop(j *job.Job) {
	l.dropDyn(j.ID)
	l.cl.Release(j.ID)
	l.active.Remove(j.ID)
}

// charge records the core-seconds j used since its start.
func (l *Lifecycle) charge(j *job.Job, now sim.Time) {
	if l.fs != nil {
		l.fs.Record(j.Cred.User, float64(j.TotalCores())*sim.SecondsOf(now-j.StartTime))
	}
}

func (l *Lifecycle) dropDyn(id job.ID) {
	for i, r := range l.dyn {
		if r.Job.ID == id {
			l.dyn = append(l.dyn[:i], l.dyn[i+1:]...)
			return
		}
	}
}

// jobType derives the workload type tag from a job name ("L.12" → "L").
func jobType(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}
