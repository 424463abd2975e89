package serverd

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/proto"
	"repro/internal/sim"
)

// serverRM adapts the live server to core.ResourceManager. All methods
// are invoked with s.mu held (from schedLoop or applyCommit).
type serverRM Server

func (r *serverRM) s() *Server { return (*Server)(r) }

// StateEpoch implements core.ChangeTracker: it advances on every
// scheduler-visible mutation, letting canSkip elide whole iterations
// while the daemon is idle between kicks.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) StateEpoch() uint64 { return r.serial }

// QueueEpoch implements the queue half of core.ChangeTracker: it
// advances only on queue-membership changes, keying the scheduler's
// sorted-order cache.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) QueueEpoch() uint64 { return r.qlog.Epoch() }

// QueueChanges implements core.QueueLogger.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) QueueChanges(since uint64) ([]*job.Job, bool) { return r.qlog.Since(since) }

// Cluster returns the live cluster mirror.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) Cluster() *cluster.Cluster { return r.cl }

// QueuedJobs returns the queued jobs in submission order.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) QueuedJobs() []*job.Job { return r.queue.Jobs() }

// ActiveJobs returns running/dynqueued jobs in ID order.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) ActiveJobs() []*job.Job { return r.active.Jobs() }

// DynRequests returns the pending dynamic requests in FIFO order.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) DynRequests() []*job.DynRequest {
	return append([]*job.DynRequest(nil), r.dyn...)
}

// hostsOf renders an allocation as host slices with mom addresses.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) hostsOf(alloc cluster.Alloc) []proto.HostSlice {
	out := make([]proto.HostSlice, 0, len(alloc))
	for _, sl := range alloc {
		ni := r.nodeByID[sl.NodeID]
		if ni == nil {
			continue
		}
		out = append(out, proto.HostSlice{Node: ni.node.Name, Addr: ni.addr, Cores: sl.Cores})
	}
	return out
}

// StartJob allocates resources and dispatches the job to its mother
// superior (the first allocated host).
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) StartJob(j *job.Job) (cluster.Alloc, error) {
	s := r.s()
	ji, ok := s.jobs[int(j.ID)]
	if !ok || j.State != job.Queued {
		return nil, fmt.Errorf("serverd: %s not queued", j.ID)
	}
	var alloc cluster.Alloc
	if ji.spec.Nodes > 0 {
		alloc = s.cl.AllocateNodes(j.ID, ji.spec.Nodes, ji.spec.PPN)
	} else {
		alloc = s.cl.Allocate(j.ID, j.Cores)
	}
	if alloc == nil {
		return nil, fmt.Errorf("serverd: cannot place %s", j.ID)
	}
	hosts := r.hostsOf(alloc)
	if len(hosts) == 0 {
		s.cl.Release(j.ID)
		return nil, fmt.Errorf("serverd: no registered mom for allocation")
	}
	ms := s.nodes[hosts[0].Node]
	if ms == nil || ms.conn == nil {
		s.cl.Release(j.ID)
		return nil, fmt.Errorf("serverd: mother superior %s unreachable", hosts[0].Node)
	}
	s.queue.Remove(j)
	j.State = job.Running
	j.StartTime = s.now()
	s.active.Add(j)
	ji.hosts = hosts
	ji.msNode = hosts[0].Node
	s.rec.ObserveUsage(s.now(), s.cl.UsedCores())
	s.bumpQueueLocked(j)
	// Walltime enforcement.
	wall := sim.ToReal(j.Walltime)
	id := int(j.ID)
	//lint:wallclock walltime limits are enforced in real time on the live daemon
	ji.killTimer = time.AfterFunc(wall, func() {
		s.mu.Lock()
		if info, ok := s.jobs[id]; ok && info.j.Active() {
			s.killLocked(info, "walltime")
		}
		s.mu.Unlock()
		s.Kick()
	})
	if err := ms.conn.Send(proto.TRunJob, proto.RunJobReq{JobID: id, Spec: ji.spec, Hosts: hosts}); err != nil {
		// Mom link failed mid-dispatch: roll back. The rollback is a
		// second round of mutations after the dispatch bump, so it
		// needs its own — without it a scheduler cache validated
		// against the dispatch epoch would keep serving the job as
		// started when it is in fact back in the queue.
		ji.stopKillTimerLocked()
		s.cl.Release(j.ID)
		s.active.Remove(j.ID)
		j.State = job.Queued
		s.queue.Push(j)
		s.bumpQueueLocked(j)
		return nil, fmt.Errorf("serverd: dispatch to %s: %w", hosts[0].Node, err)
	}
	s.logf("job %d started on %s (ms=%s)", id, cluster.Alloc(alloc).String(), ji.msNode)
	return alloc, nil
}

// GrantDyn expands the job and answers the parked tm_dynget through
// the mother superior (Fig. 3 steps 5–7).
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) GrantDyn(req *job.DynRequest) (cluster.Alloc, error) {
	s := r.s()
	ji, ok := s.jobs[int(req.Job.ID)]
	if !ok {
		return nil, fmt.Errorf("serverd: unknown job %s", req.Job.ID)
	}
	var alloc cluster.Alloc
	if req.Nodes > 0 {
		alloc = s.cl.AllocateNodes(req.Job.ID, req.Nodes, req.PPN)
	} else {
		alloc = s.cl.Allocate(req.Job.ID, req.Cores)
	}
	if alloc == nil {
		return nil, fmt.Errorf("serverd: cannot place dynamic request for %s", req.Job.ID)
	}
	hosts := r.hostsOf(alloc)
	req.Job.DynCores += req.TotalCores()
	req.Job.State = job.Running
	if !ji.granted {
		ji.granted = true
		ji.dynGrant = s.now()
	}
	ji.hosts = append(ji.hosts, hosts...)
	s.dropDynLocked(int(req.Job.ID))
	s.rec.ObserveUsage(s.now(), s.cl.UsedCores())
	s.bumpLocked(req.Job)
	s.deliverVerdictLocked(ji, proto.DynGetResp{
		JobID: int(req.Job.ID), Granted: true, Hosts: hosts,
	})
	s.logf("dyn grant job=%d +%d cores", req.Job.ID, req.TotalCores())
	return alloc, nil
}

// RejectDyn answers the parked tm_dynget negatively.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) RejectDyn(req *job.DynRequest, reason string) {
	s := r.s()
	req.Job.State = job.Running
	s.dropDynLocked(int(req.Job.ID))
	s.bumpLocked(req.Job)
	if ji := s.jobs[int(req.Job.ID)]; ji != nil {
		s.deliverVerdictLocked(ji, proto.DynGetResp{
			JobID: int(req.Job.ID), Granted: false, Reason: reason,
		})
	}
	s.logf("dyn reject job=%d: %s", req.Job.ID, reason)
}

// Preempt kills a running job on its mom and requeues it.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) Preempt(j *job.Job) error {
	s := r.s()
	ji, ok := s.jobs[int(j.ID)]
	if !ok || !j.Active() {
		return fmt.Errorf("serverd: %s not active", j.ID)
	}
	s.dropDynLocked(int(j.ID))
	s.cl.Release(j.ID)
	s.active.Remove(j.ID)
	ji.stopKillTimerLocked()
	s.sendMomLocked(s.nodes[ji.msNode], proto.TKillJob, proto.KillJobReq{JobID: int(j.ID)})
	j.State = job.Queued
	j.StartTime = 0
	j.DynCores = 0
	j.Backfilled = false
	ji.hosts = nil
	ji.msNode = ""
	s.queue.Push(j)
	s.rec.ObserveUsage(s.now(), s.cl.UsedCores())
	s.bumpQueueLocked(j)
	s.logf("job %d preempted and requeued", j.ID)
	return nil
}

// --- external scheduler protocol ---

// schedSession serves one external scheduler's link until it fails or
// the peer hangs up, starting with env, the message that classified it.
// handleConn keeps the connection tracked, so Close ends the session.
func (s *Server) schedSession(c *proto.Conn, env *proto.Envelope) {
	s.mu.Lock()
	s.schedLinks++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.schedLinks--; s.schedLinks == 0 {
			// Nobody is left to read the log; positions stay monotone.
			s.touchBase += uint64(len(s.touched))
			s.touched = nil
		}
		s.mu.Unlock()
		_ = c.Close()
	}()
	var cursor uint64
	synced := false
	for {
		var err error
		//schedlint:dispatch server.sched
		switch env.Type {
		case proto.TSchedPull:
			s.mu.Lock()
			t, state := s.pullLocked(&cursor, synced)
			s.mu.Unlock()
			synced = true
			err = c.Send(t, state)
		case proto.TSchedCommit:
			var commit proto.SchedCommit
			if derr := env.Decode(&commit); derr != nil {
				// Not a zero SchedCommitResp under TOK: that reads as "nothing
				// applied" and the scheduler would keep its normal cadence.
				err = c.Send(proto.TError, proto.ErrorResp{Error: fmt.Sprintf("bad %s: %v", env.Type, derr)})
			} else {
				err = c.Send(proto.TOK, s.applyCommit(commit))
			}
		default:
			err = c.Send(proto.TError, proto.ErrorResp{Error: fmt.Sprintf("unexpected %s", env.Type)})
		}
		if err == nil {
			env, err = c.Recv()
		}
		if err != nil {
			return
		}
	}
}

// pullLocked answers one sched.pull of a session whose last answer
// covered the change log up to *cursor, and advances the cursor: the
// full snapshot when the session has none yet or the log no longer
// reaches back to the cursor, else the delta. Caller holds s.mu.
func (s *Server) pullLocked(cursor *uint64, synced bool) (proto.MsgType, any) {
	from := *cursor
	*cursor = s.touchBase + uint64(len(s.touched))
	if !synced || from < s.touchBase {
		return proto.TSchedState, s.snapshotLocked()
	}
	return proto.TSchedDelta, s.deltaLocked(s.touched[from-s.touchBase:])
}

// snapshotLocked renders the full scheduler state. The lists are sized
// once up front: the copy runs under s.mu, and growing a deep queue's
// list by doubling would hold every other handler off for the
// reallocations too. Caller holds s.mu.
func (s *Server) snapshotLocked() proto.SchedState {
	st := proto.SchedState{NowMS: int64(s.now()), Serial: s.serial, Nodes: s.nodeStatusLocked(), Dyn: s.schedDynLocked()}
	st.Queued = sized[proto.SchedJob](s.queue.Len())
	for _, j := range s.queue.Jobs() {
		st.Queued = append(st.Queued, schedJob(j))
	}
	st.Active = sized[proto.SchedJob](s.active.Len())
	for _, j := range s.active.Jobs() {
		st.Active = append(st.Active, schedJob(j))
	}
	return st
}

// deltaLocked renders what the log entries in window changed: one
// record per job, in the order of its last queue-membership change (of
// its first mention when it had none), so that the jobs now queued
// whose membership changed — each was appended to s.queue by that
// change — come out in queue order. Caller holds s.mu.
func (s *Server) deltaLocked(window []int) proto.SchedDelta {
	d := proto.SchedDelta{NowMS: int64(s.now()), Serial: s.serial, Nodes: s.nodeStatusLocked(), Dyn: s.schedDynLocked()}
	if len(window) == 0 {
		return d
	}
	order := make([]int, 0, len(window))
	slot := make(map[int]int, len(window)) // job id → index in order
	for _, t := range window {
		if i, seen := slot[t>>1]; seen {
			if t&1 == 0 {
				continue
			}
			order[i] = 0 // superseded: job ids start at 1
		}
		slot[t>>1] = len(order)
		order = append(order, t)
	}
	for _, t := range order {
		ji := s.jobs[t>>1]
		if ji == nil {
			continue
		}
		if t&1 == 1 && ji.j.State == job.Queued {
			d.Tail = append(d.Tail, schedJob(ji.j))
		} else {
			d.Jobs = append(d.Jobs, schedJob(ji.j))
		}
	}
	return d
}

func schedJob(j *job.Job) proto.SchedJob {
	return proto.SchedJob{
		ID: int(j.ID), Name: j.Name, User: j.Cred.User, Group: j.Cred.Group,
		State: j.State.String(), Cores: j.Cores, DynCores: j.DynCores,
		WallSecs: int64(j.Walltime / sim.Second),
		SubmitMS: int64(j.SubmitTime), StartMS: int64(j.StartTime),
		SysPrio: j.SystemPriority, Evolving: j.Class == job.Evolving,
		Backfilled: j.Backfilled,
	}
}

// schedDynLocked renders the pending dynamic requests in FIFO order.
// Caller holds s.mu.
func (s *Server) schedDynLocked() []proto.SchedDynReq {
	out := sized[proto.SchedDynReq](len(s.dyn))
	for _, r := range s.dyn {
		out = append(out, proto.SchedDynReq{
			JobID: int(r.Job.ID), Cores: r.Cores, Nodes: r.Nodes, PPN: r.PPN, Seq: r.Seq,
			DeadlineMS: int64(r.Deadline),
		})
	}
	return out
}

// sized returns an empty list with room for n elements, or nil for
// n == 0 so that an empty list still travels as JSON null under v1.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// applyCommit validates and applies an external scheduler's decisions.
// Each action re-validates against current state, so a commit computed
// on a stale snapshot degrades gracefully (stale actions are skipped
// and will be re-planned on the next pull).
func (s *Server) applyCommit(c proto.SchedCommit) proto.SchedCommitResp {
	s.mu.Lock()
	defer s.mu.Unlock()
	rm := (*serverRM)(s)
	var resp proto.SchedCommitResp
	for _, a := range c.Actions {
		ji, ok := s.jobs[a.JobID]
		if !ok {
			resp.Skipped++
			continue
		}
		s.touchLocked(ji.j, 0)
		switch a.Kind {
		case "start":
			if ji.j.State != job.Queued {
				resp.Skipped++
				continue
			}
			if _, err := rm.StartJob(ji.j); err != nil {
				resp.Skipped++
				continue
			}
			resp.Applied++
		case "grant":
			req := s.findDynLocked(a.JobID)
			if req == nil {
				resp.Skipped++
				continue
			}
			if _, err := rm.GrantDyn(req); err != nil {
				// Placement failed after a stale plan: reject so the
				// application is not left blocked.
				rm.RejectDyn(req, "resources changed; retry")
				resp.Skipped++
				continue
			}
			resp.Applied++
		case "reject":
			req := s.findDynLocked(a.JobID)
			if req == nil {
				resp.Skipped++
				continue
			}
			rm.RejectDyn(req, a.Reason)
			resp.Applied++
		default:
			resp.Skipped++
		}
	}
	return resp
}

func (s *Server) findDynLocked(jobID int) *job.DynRequest {
	for _, r := range s.dyn {
		if int(r.Job.ID) == jobID {
			return r
		}
	}
	return nil
}
