// Package mauid implements the scheduler daemon (the Maui analog) as a
// separate process from the server, matching the paper's architecture
// (Fig. 2: pbs_server and the Maui scheduler are distinct daemons on
// the headnode). Each iteration the daemon pulls a workload/resource
// snapshot from the server (sched.pull), plans against a local mirror
// with the exact same core.Scheduler the simulator uses, and commits
// its decisions (sched.commit). The server re-validates every action,
// so a commit computed on a stale snapshot degrades gracefully.
package mauid

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Daemon is the external scheduler.
type Daemon struct {
	srvAddr  string
	sched    *core.Scheduler
	interval time.Duration
	closed   chan struct{} //schedlint:chan-owner Close
	done     chan struct{} //schedlint:chan-owner Start (the iteration goroutine defers the close on exit)

	// Proto selects the wire codec for server connections (see
	// proto.Mode); the zero value negotiates automatically. Set before
	// Start.
	Proto proto.Mode
}

// New creates a daemon that schedules the server at srvAddr every
// interval (plus immediately after any iteration that made progress).
func New(srvAddr string, sched *core.Scheduler, interval time.Duration) *Daemon {
	if interval <= 0 {
		interval = time.Second
	}
	return &Daemon{
		srvAddr:  srvAddr,
		sched:    sched,
		interval: interval,
		closed:   make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Scheduler returns the planning core (for fairness inspection).
func (d *Daemon) Scheduler() *core.Scheduler { return d.sched }

// Start begins the iteration loop. Iterations that fail (an
// unreachable or restarting server) back off with capped exponential
// delay and deterministic jitter instead of hammering the headnode at
// the full polling rate; the first success resumes the normal cadence.
func (d *Daemon) Start() {
	go func() {
		defer close(d.done)
		pol := backoff.Policy{Max: d.interval * 8}
		rng := backoff.NewRand("mauid")
		failures := 0
		t := time.NewTimer(d.interval) //lint:wallclock the external scheduler polls the server in real time
		defer t.Stop()
		for {
			select {
			case <-d.closed:
				return
			case <-t.C:
			}
			applied, _, err := d.RunOnce()
			if err != nil {
				t.Reset(pol.Delay(failures, rng))
				failures++
				continue
			}
			failures = 0
			// Progress usually enables more progress (freed siblings,
			// unblocked reservations): iterate again immediately.
			for applied > 0 {
				applied, _, err = d.RunOnce()
				if err != nil {
					break
				}
			}
			t.Reset(d.interval)
		}
	}()
}

// Close stops the loop.
func (d *Daemon) Close() {
	select {
	case <-d.closed:
	default:
		close(d.closed)
	}
	<-d.done
}

// RunOnce performs a single pull→plan→commit cycle and returns how
// many actions the server applied and skipped.
func (d *Daemon) RunOnce() (applied, skipped int, err error) {
	state, err := d.pull()
	if err != nil {
		return 0, 0, err
	}
	mirror, err := newMirror(state)
	if err != nil {
		return 0, 0, err
	}
	d.sched.Recycle(d.sched.Iterate(sim.Time(state.NowMS), mirror))
	if len(mirror.actions) == 0 {
		return 0, 0, nil
	}
	resp, err := d.commit(proto.SchedCommit{Serial: state.Serial, Actions: mirror.actions})
	if err != nil {
		return 0, 0, err
	}
	return resp.Applied, resp.Skipped, nil
}

func (d *Daemon) pull() (*proto.SchedState, error) {
	c, err := proto.DialMode(d.srvAddr, d.Proto)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	env, err := c.Request(proto.TSchedPull, nil)
	if err != nil {
		return nil, err
	}
	if env.Type != proto.TSchedState {
		return nil, fmt.Errorf("mauid: unexpected reply %s", env.Type)
	}
	var st proto.SchedState
	if err := env.Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (d *Daemon) commit(c proto.SchedCommit) (*proto.SchedCommitResp, error) {
	conn, err := proto.DialMode(d.srvAddr, d.Proto)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	env, err := conn.Request(proto.TSchedCommit, c)
	if err != nil {
		return nil, err
	}
	if env.Type == proto.TError {
		var e proto.ErrorResp
		if err := env.Decode(&e); err != nil {
			return nil, fmt.Errorf("mauid: commit refused: %w", err)
		}
		return nil, fmt.Errorf("mauid: commit refused: %s", e.Error)
	}
	var resp proto.SchedCommitResp
	if err := env.Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// mirror implements core.ResourceManager over a snapshot: decisions
// mutate only the local mirror and are recorded as commit actions. It
// also implements core.ChangeTracker — epochs are seeded from the
// pulled snapshot serial and advance with the mirror's own mutations —
// so the scheduler's epoch machinery sees an honest tracker. The skip
// and order caches stay naturally cold across cycles (every RunOnce
// builds a fresh mirror, and both caches key on RM identity), which is
// exactly right: a new pull is by definition a new world.
type mirror struct {
	cl      *cluster.Cluster
	queued  []*job.Job        //schedlint:epoch-guarded by bumpQueue
	active  []*job.Job        //schedlint:epoch-guarded by bump
	dyn     []*job.DynRequest //schedlint:epoch-guarded by bump
	serial  uint64
	qserial uint64
	actions []proto.SchedAction
}

// bump advances the state epoch.
func (m *mirror) bump() { m.serial++ }

// bumpQueue advances both epochs: a queue-membership change also
// invalidates state-level caches.
//
//schedlint:epoch-bump subsumes bump
func (m *mirror) bumpQueue() {
	m.serial++
	m.qserial++
}

// StateEpoch implements core.ChangeTracker.
func (m *mirror) StateEpoch() uint64 { return m.serial }

// QueueEpoch implements core.ChangeTracker.
func (m *mirror) QueueEpoch() uint64 { return m.qserial }

// mirrorFillID marks the synthetic allocations that reproduce the
// snapshot's per-node usage in the mirror cluster.
const mirrorFillID = job.ID(1 << 30)

func newMirror(st *proto.SchedState) (*mirror, error) {
	m := &mirror{cl: cluster.New(0, 0), serial: st.Serial, qserial: st.Serial}
	for i, n := range st.Nodes {
		node := m.cl.AddNode(n.Name, n.Cores)
		if n.State != "up" {
			m.cl.SetNodeState(node.ID, cluster.Down)
			continue
		}
		if n.Used > 0 {
			// Reproduce the usage with a synthetic allocation so the
			// planner sees correct idle counts per node.
			if m.cl.AllocateNodes(mirrorFillID+job.ID(i), 1, n.Used) == nil {
				return nil, fmt.Errorf("mauid: cannot mirror %d used cores on %s", n.Used, n.Name)
			}
		}
	}
	jobOf := func(sj proto.SchedJob) *job.Job {
		class := job.Rigid
		if sj.Evolving {
			class = job.Evolving
		}
		st, _ := parseState(sj.State)
		return &job.Job{
			ID:    job.ID(sj.ID),
			Name:  sj.Name,
			Cred:  job.Credentials{User: sj.User, Group: sj.Group},
			Class: class, Cores: sj.Cores, DynCores: sj.DynCores,
			Walltime:       sim.Duration(sj.WallSecs) * sim.Second,
			SubmitTime:     sim.Time(sj.SubmitMS),
			StartTime:      sim.Time(sj.StartMS),
			State:          st,
			SystemPriority: sj.SysPrio,
			Backfilled:     sj.Backfilled,
		}
	}
	byID := map[int]*job.Job{}
	for _, sj := range st.Queued {
		j := jobOf(sj)
		m.queued = append(m.queued, j)
		byID[sj.ID] = j
	}
	for _, sj := range st.Active {
		j := jobOf(sj)
		m.active = append(m.active, j)
		byID[sj.ID] = j
	}
	dyn := append([]proto.SchedDynReq(nil), st.Dyn...)
	sort.Slice(dyn, func(i, k int) bool { return dyn[i].Seq < dyn[k].Seq })
	for _, dr := range dyn {
		j := byID[dr.JobID]
		if j == nil {
			continue
		}
		m.dyn = append(m.dyn, &job.DynRequest{
			Job: j, Cores: dr.Cores, Nodes: dr.Nodes, PPN: dr.PPN, Seq: dr.Seq,
			Deadline: sim.Time(dr.DeadlineMS),
		})
	}
	return m, nil
}

func parseState(s string) (job.State, error) {
	for _, st := range []job.State{job.Queued, job.Running, job.DynQueued, job.Completed, job.Cancelled, job.Preempted} {
		if st.String() == s {
			return st, nil
		}
	}
	return job.Queued, fmt.Errorf("mauid: unknown state %q", s)
}

func (m *mirror) Cluster() *cluster.Cluster      { return m.cl }
func (m *mirror) QueuedJobs() []*job.Job         { return append([]*job.Job(nil), m.queued...) }
func (m *mirror) ActiveJobs() []*job.Job         { return append([]*job.Job(nil), m.active...) }
func (m *mirror) DynRequests() []*job.DynRequest { return append([]*job.DynRequest(nil), m.dyn...) }

func (m *mirror) StartJob(j *job.Job) (cluster.Alloc, error) {
	alloc := m.cl.Allocate(j.ID, j.Cores)
	if alloc == nil {
		return nil, fmt.Errorf("mauid: mirror cannot place %s", j.ID)
	}
	for i, q := range m.queued {
		if q.ID == j.ID {
			m.queued = append(m.queued[:i], m.queued[i+1:]...)
			break
		}
	}
	j.State = job.Running
	m.active = append(m.active, j)
	m.bumpQueue()
	m.actions = append(m.actions, proto.SchedAction{Kind: "start", JobID: int(j.ID)})
	return alloc, nil
}

func (m *mirror) GrantDyn(r *job.DynRequest) (cluster.Alloc, error) {
	var alloc cluster.Alloc
	if r.Nodes > 0 {
		alloc = m.cl.AllocateNodes(r.Job.ID, r.Nodes, r.PPN)
	} else {
		alloc = m.cl.Allocate(r.Job.ID, r.Cores)
	}
	if alloc == nil {
		return nil, fmt.Errorf("mauid: mirror cannot place grant for %s", r.Job.ID)
	}
	r.Job.DynCores += r.TotalCores()
	r.Job.State = job.Running
	m.removeDyn(r)
	m.bump()
	m.actions = append(m.actions, proto.SchedAction{Kind: "grant", JobID: int(r.Job.ID)})
	return alloc, nil
}

func (m *mirror) RejectDyn(r *job.DynRequest, reason string) {
	r.Job.State = job.Running
	m.removeDyn(r)
	m.bump()
	m.actions = append(m.actions, proto.SchedAction{Kind: "reject", JobID: int(r.Job.ID), Reason: reason})
}

func (m *mirror) removeDyn(r *job.DynRequest) {
	for i, d := range m.dyn {
		if d == r {
			m.dyn = append(m.dyn[:i], m.dyn[i+1:]...)
			return
		}
	}
}

// Preempt is not available through the remote protocol; sites wanting
// preemption for dynamic requests run the embedded scheduler.
func (m *mirror) Preempt(j *job.Job) error {
	return fmt.Errorf("mauid: preemption not supported over the sched protocol")
}
