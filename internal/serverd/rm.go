package serverd

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/proto"
	"repro/internal/sim"
)

// serverRM is the live server's job lifecycle: core.Lifecycle, with
// the daemon's side effects — walltime and negotiation timers, RunJob
// and KillJob messages to moms, dyn verdict delivery, host slices — around
// each transition. It is the core.ResourceManager of the embedded
// scheduler and of applyCommit. All methods are invoked with s.mu held.
type serverRM struct {
	core.Lifecycle
	s *Server
}

// hostsOf renders an allocation as host slices with mom addresses.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) hostsOf(alloc cluster.Alloc) []proto.HostSlice {
	out := make([]proto.HostSlice, 0, len(alloc))
	for _, sl := range alloc {
		ni := r.s.nodeByID[sl.NodeID]
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
	s := r.s
	ji, ok := s.jobs[int(j.ID)]
	if !ok {
		return nil, fmt.Errorf("serverd: unknown job %s", j.ID)
	}
	var hosts []proto.HostSlice
	var ms *nodeInfo
	alloc, err := r.Start(j, ji.spec.Nodes, ji.spec.PPN, s.now(), func(alloc cluster.Alloc) error {
		if hosts = r.hostsOf(alloc); len(hosts) == 0 {
			return fmt.Errorf("serverd: no registered mom for allocation")
		}
		if ms = s.nodes[hosts[0].Node]; ms == nil || ms.conn == nil {
			return fmt.Errorf("serverd: mother superior %s unreachable", hosts[0].Node)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ji.hosts = hosts
	ji.msNode = hosts[0].Node
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
		// Mom link failed mid-dispatch: roll back.
		stopTimer(&ji.killTimer)
		r.Unstart(j, s.now())
		return nil, fmt.Errorf("serverd: dispatch to %s: %w", hosts[0].Node, err)
	}
	s.logf("job %d started on %s (ms=%s)", id, alloc, ji.msNode)
	return alloc, nil
}

// GrantDyn expands the job and answers the parked tm_dynget through
// the mother superior (Fig. 3 steps 5–7).
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) GrantDyn(req *job.DynRequest) (cluster.Alloc, error) {
	s := r.s
	ji, ok := s.jobs[int(req.Job.ID)]
	if !ok {
		return nil, fmt.Errorf("serverd: unknown job %s", req.Job.ID)
	}
	alloc, err := r.Grant(req, s.now())
	if err != nil {
		return nil, err
	}
	stopTimer(&ji.negTimer)
	hosts := r.hostsOf(alloc)
	ji.hosts = append(ji.hosts, hosts...)
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
	s := r.s
	r.Reject(req, reason, s.now())
	if ji := s.jobs[int(req.Job.ID)]; ji != nil {
		stopTimer(&ji.negTimer)
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
	s := r.s
	ji, ok := s.jobs[int(j.ID)]
	if !ok {
		return fmt.Errorf("serverd: unknown job %s", j.ID)
	}
	if err := r.Requeue(j, s.now()); err != nil {
		return err
	}
	ji.stopTimersLocked()
	s.sendMomLocked(s.nodes[ji.msNode], proto.TKillJob, proto.KillJobReq{JobID: int(j.ID)})
	ji.hosts = nil
	ji.msNode = ""
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
	st := proto.SchedState{NowMS: int64(s.now()), Serial: s.rm.StateEpoch(), Nodes: s.nodeStatusLocked(), Dyn: s.schedDynLocked()}
	queued, active := s.rm.QueuedJobs(), s.rm.ActiveJobs()
	st.Queued = sized[proto.SchedJob](len(queued))
	for _, j := range queued {
		st.Queued = append(st.Queued, schedJob(j))
	}
	st.Active = sized[proto.SchedJob](len(active))
	for _, j := range active {
		st.Active = append(st.Active, schedJob(j))
	}
	return st
}

// deltaLocked renders what the log entries in window changed: one
// record per job, in the order of its last queue-membership change (of
// its first mention when it had none), so that the jobs now queued
// whose membership changed — each was appended to the queue by that
// change — come out in queue order. Caller holds s.mu.
func (s *Server) deltaLocked(window []int) proto.SchedDelta {
	d := proto.SchedDelta{NowMS: int64(s.now()), Serial: s.rm.StateEpoch(), Nodes: s.nodeStatusLocked(), Dyn: s.schedDynLocked()}
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
	dyn := s.rm.DynRequests()
	out := sized[proto.SchedDynReq](len(dyn))
	for _, r := range dyn {
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
	rm := &s.rm
	var resp proto.SchedCommitResp
	for _, a := range c.Actions {
		ji, ok := s.jobs[a.JobID]
		if !ok {
			resp.Skipped++
			continue
		}
		s.touchLocked(ji.j, false)
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
			req := rm.PendingDyn(job.ID(a.JobID))
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
			req := rm.PendingDyn(job.ID(a.JobID))
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
