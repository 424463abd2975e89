package serverd

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/proto"
	"repro/internal/sim"
)

// serverRM is the live server's job lifecycle: core.Lifecycle, with
// the daemon's side effects — walltime and negotiation deadlines, RunJob
// and KillJob messages to moms, dyn verdict delivery, host slices — around
// each transition. It is the core.ResourceManager of the embedded
// scheduler and of applyCommit, and runs on the server's loop.
type serverRM struct {
	core.Lifecycle
	s *Server
}

// hostsOf renders an allocation as host slices with mom addresses.
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
	id := int(j.ID)
	if err := ms.conn.Send(proto.TRunJob, proto.RunJobReq{JobID: id, Spec: ji.spec, Hosts: hosts}); err != nil {
		// Mom link failed mid-dispatch: roll back.
		r.Unstart(j, s.now())
		return nil, fmt.Errorf("serverd: dispatch to %s: %w", hosts[0].Node, err)
	}
	ji.hosts = hosts
	ji.msNode = hosts[0].Node
	s.arm(&ji.wall, &deadline{at: s.now() + j.Walltime, ji: ji})
	s.logf("job %d started on %s (ms=%s)", id, alloc, ji.msNode)
	return alloc, nil
}

// GrantDyn expands the job and answers the parked tm_dynget through
// the mother superior (Fig. 3 steps 5–7).
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
	s.disarm(&ji.neg)
	hosts := r.hostsOf(alloc)
	ji.hosts = append(ji.hosts, hosts...)
	s.deliverVerdict(ji, proto.DynGetResp{
		JobID: int(req.Job.ID), Granted: true, Hosts: hosts,
	})
	s.logf("dyn grant job=%d +%d cores", req.Job.ID, req.TotalCores())
	return alloc, nil
}

// RejectDyn answers the parked tm_dynget negatively.
func (r *serverRM) RejectDyn(req *job.DynRequest, reason string) {
	s := r.s
	r.Reject(req, reason, s.now())
	if ji := s.jobs[int(req.Job.ID)]; ji != nil {
		s.disarm(&ji.neg)
		s.deliverVerdict(ji, proto.DynGetResp{
			JobID: int(req.Job.ID), Granted: false, Reason: reason,
		})
	}
	s.logf("dyn reject job=%d: %s", req.Job.ID, reason)
}

// Preempt kills a running job on its mom and requeues it.
func (r *serverRM) Preempt(j *job.Job) error {
	s := r.s
	ji, ok := s.jobs[int(j.ID)]
	if !ok {
		return fmt.Errorf("serverd: unknown job %s", j.ID)
	}
	if err := r.Requeue(j, s.now()); err != nil {
		return err
	}
	s.disarm(&ji.wall, &ji.neg)
	s.sendMom(s.nodes[ji.msNode], proto.TKillJob, proto.KillJobReq{JobID: int(j.ID)})
	ji.hosts = nil
	ji.msNode = ""
	s.logf("job %d preempted and requeued", j.ID)
	return nil
}

// --- external scheduler protocol ---

// schedSession serves one external scheduler's link until it fails or
// the peer hangs up, starting with env, the message that classified it.
// handleConn closes the connection when the server closes, so Close
// ends the session.
func (s *Server) schedSession(c *proto.Conn, env *proto.Envelope) {
	if !s.call(func() { s.schedLinks++ }) {
		_ = c.Close()
		return
	}
	defer func() {
		s.call(func() {
			if s.schedLinks--; s.schedLinks == 0 {
				// Nobody is left to read the log; positions stay monotone.
				s.touchBase += uint64(len(s.touched))
				s.touched = nil
			}
		})
		_ = c.Close()
	}()
	var cursor uint64
	synced := false
	for {
		var err error
		//schedlint:dispatch server.sched
		switch env.Type {
		case proto.TSchedPull:
			var t proto.MsgType
			var state any
			if !s.call(func() { t, state = s.pull(&cursor, synced) }) {
				return
			}
			synced = true
			err = c.Send(t, state)
		case proto.TSchedCommit:
			var commit proto.SchedCommit
			var resp proto.SchedCommitResp
			if derr := env.Decode(&commit); derr != nil {
				// Not a zero SchedCommitResp under TOK: that reads as "nothing
				// applied" and the scheduler would keep its normal cadence.
				err = c.Send(proto.TError, proto.ErrorResp{Error: fmt.Sprintf("bad %s: %v", env.Type, derr)})
			} else if s.call(func() { resp = s.applyCommit(commit) }) {
				err = c.Send(proto.TOK, resp)
			} else {
				return
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

// pull answers one sched.pull of a session whose last answer covered
// the change log up to *cursor, and advances the cursor: the full
// snapshot when the session has none yet or the log no longer reaches
// back to the cursor, else the delta.
func (s *Server) pull(cursor *uint64, synced bool) (proto.MsgType, any) {
	from := *cursor
	*cursor = s.touchBase + uint64(len(s.touched))
	if !synced || from < s.touchBase {
		return proto.TSchedState, s.snapshot()
	}
	return proto.TSchedDelta, s.delta(s.touched[from-s.touchBase:])
}

// snapshot renders the full scheduler state. The lists are sized once
// up front: the copy runs on the loop, and growing a deep queue's list
// by doubling would hold every other event off for the reallocations
// too.
func (s *Server) snapshot() proto.SchedState {
	st := proto.SchedState{NowMS: int64(s.now()), Serial: s.rm.StateEpoch(), Nodes: s.nodeStatus(), Dyn: s.schedDyn()}
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

// delta renders what the log entries in window changed: one
// record per job, in the order of its last queue-membership change (of
// its first mention when it had none), so that the jobs now queued
// whose membership changed — each was appended to the queue by that
// change — come out in queue order.
func (s *Server) delta(window []int) proto.SchedDelta {
	d := proto.SchedDelta{NowMS: int64(s.now()), Serial: s.rm.StateEpoch(), Nodes: s.nodeStatus(), Dyn: s.schedDyn()}
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

// schedDyn renders the pending dynamic requests in FIFO order.
func (s *Server) schedDyn() []proto.SchedDynReq {
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
	var resp proto.SchedCommitResp
	for _, a := range c.Actions {
		if s.applyAction(a) {
			resp.Applied++
		} else {
			resp.Skipped++
		}
	}
	return resp
}

// applyAction applies one action of a commit if it still holds; false
// means it was skipped.
func (s *Server) applyAction(a proto.SchedAction) bool {
	ji, ok := s.jobs[a.JobID]
	if !ok {
		return false
	}
	s.touch(ji.j, false)
	req := s.rm.PendingDyn(ji.j.ID)
	switch {
	case a.Kind == "start":
		if ji.j.State != job.Queued {
			return false
		}
		_, err := s.rm.StartJob(ji.j)
		return err == nil
	case req == nil:
		return false
	case a.Kind == "grant":
		if _, err := s.rm.GrantDyn(req); err != nil {
			// Placement failed after a stale plan: reject so the
			// application is not left blocked.
			s.rm.RejectDyn(req, "resources changed; retry")
			return false
		}
		return true
	case a.Kind == "reject":
		s.rm.RejectDyn(req, a.Reason)
		return true
	}
	return false
}
