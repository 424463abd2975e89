// Package mauid implements the scheduler daemon (the Maui analog) as a
// separate process from the server, matching the paper's architecture
// (Fig. 2: pbs_server and the Maui scheduler are distinct daemons on
// the headnode). The daemon keeps one link to the server and a mirror
// of the server's workload. Each iteration it pulls (sched.pull: the
// full snapshot on a new link, after that only what changed), plans
// against the mirror with the exact same core.Scheduler the simulator
// uses, and commits its decisions (sched.commit). The server
// re-validates every action, so a commit computed on a stale mirror
// degrades gracefully.
package mauid

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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

	// cycle serializes RunOnce; the mirror belongs to the cycle.
	cycle sync.Mutex
	m     *mirror // guarded by cycle: nil until the first full snapshot

	// timeout bounds the dial and every wait for the server's answer, so
	// that a server that is up but hung fails the cycle — and the link
	// with it — instead of holding the cycle until somebody cuts the
	// link.
	timeout time.Duration

	link    atomic.Pointer[proto.Conn] // the sched session; dialled by the next request when nil
	started atomic.Bool                // Start ran, so Close has a goroutine to wait for
}

// requestTimeout is how long the daemon waits for the server to answer a
// pull or a commit: far beyond what a full snapshot of a deep queue
// takes, short against an operator noticing that scheduling has stopped.
const requestTimeout = 30 * time.Second

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
		timeout:  requestTimeout,
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
	d.started.Store(true)
	go func() {
		defer close(d.done)
		pol := d.retryPolicy()
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
			// Progress usually enables more progress (freed siblings,
			// unblocked reservations): iterate again immediately.
			applied, _, err := d.RunOnce()
			for err == nil && applied > 0 {
				applied, _, err = d.RunOnce()
			}
			if err != nil {
				t.Reset(pol.Delay(failures, rng))
				failures++
				continue
			}
			failures = 0
			t.Reset(d.interval)
		}
	}()
}

// retryPolicy is the pause after failed cycles: from one polling interval
// up to eight, so that a daemon polling every millisecond is back within
// milliseconds of a link loss, not after the 100 ms a slow poller starts
// at.
func (d *Daemon) retryPolicy() backoff.Policy {
	return backoff.Policy{Base: d.interval, Max: d.interval * 8}
}

// Close stops the loop and hangs up the sched link. It is safe on a
// daemon that was never started.
func (d *Daemon) Close() {
	select {
	case <-d.closed:
	default:
		close(d.closed)
	}
	d.dropLink() // unblocks a cycle waiting on the server
	if d.started.Load() {
		<-d.done
	}
}

// RunOnce performs a single pull→plan→commit cycle and returns how
// many actions the server applied and skipped. Any error costs the
// link: a request that failed may or may not have reached the server,
// so nothing is replayed and the next cycle starts over from a full
// snapshot on a new link.
func (d *Daemon) RunOnce() (applied, skipped int, err error) {
	d.cycle.Lock()
	defer d.cycle.Unlock()
	defer func() {
		if err != nil {
			d.dropLink()
		}
	}()
	now, err := d.pull()
	if err != nil {
		return 0, 0, err
	}
	m := d.m
	d.sched.Iterate(now, m)
	if len(m.actions) == 0 {
		return 0, 0, nil
	}
	resp, err := d.commit(proto.SchedCommit{Serial: m.srvSerial, Actions: m.actions})
	if err != nil {
		return 0, 0, err
	}
	return resp.Applied, resp.Skipped, nil
}

// pull brings the mirror up to the server's state and returns the
// server's clock: a new mirror from a full snapshot, or the delta
// applied to the one at hand. RunOnce calls it with d.cycle held.
func (d *Daemon) pull() (sim.Time, error) {
	env, err := d.request(proto.TSchedPull, nil)
	if err != nil {
		return 0, err
	}
	if env.Type == proto.TSchedDelta && d.m != nil {
		var delta proto.SchedDelta
		if err := env.Decode(&delta); err != nil {
			return 0, err
		}
		return sim.Time(delta.NowMS), d.m.apply(&delta)
	}
	if env.Type != proto.TSchedState {
		return 0, fmt.Errorf("mauid: unexpected reply %s", env.Type)
	}
	var st proto.SchedState
	if err := env.Decode(&st); err != nil {
		return 0, err
	}
	d.m, err = newMirror(&st)
	return sim.Time(st.NowMS), err
}

func (d *Daemon) commit(c proto.SchedCommit) (*proto.SchedCommitResp, error) {
	env, err := d.request(proto.TSchedCommit, c)
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

// request sends one message on the sched link, dialling the link first
// when there is none, and returns the server's answer.
func (d *Daemon) request(t proto.MsgType, payload any) (*proto.Envelope, error) {
	c := d.link.Load()
	if c == nil {
		var err error
		if c, err = proto.DialModeTimeout(d.srvAddr, d.Proto, d.timeout); err != nil {
			return nil, err
		}
		c.SetReadTimeout(d.timeout)
		d.link.Store(c)
		select {
		case <-d.closed: // Close ran meanwhile and may have missed c
			d.dropLink()
			return nil, errors.New("mauid: daemon closed")
		default:
		}
	}
	return c.Request(t, payload)
}

func (d *Daemon) dropLink() {
	if c := d.link.Swap(nil); c != nil {
		_ = c.Close()
	}
}

// mirror implements core.ResourceManager over the daemon's copy of the
// server's workload: a core.Lifecycle, as the server's own, into which
// every pull files the server's records and whose transitions the cycle
// performs on them, recording each as a commit action. One mirror lives
// as long as its link — the full snapshot builds it, every delta after
// that is applied in place — so jobs keep their *job.Job and the mirror
// its identity across cycles, and its epochs (advanced by applied
// deltas and by its own actions) let the scheduler skip a cycle in
// which nothing happened and keep its sorted order over one that left
// the queue alone.
//
// The mirror is never trusted. What a cycle did to it is a guess at
// what the server will do with the commit; the server names every job
// of a commit in the next delta, applied or not, and the record there
// overwrites the guess. A job's queue key is taken when the server
// appends it to its queue and kept while a start of ours is
// unconfirmed, so that a start the server skipped puts the job back
// where the server still has it. Used cores per node are re-seated from
// the server's node table on every change.
//
// What only the mirror has is confined to the cycle: RunOnce holds
// Daemon.cycle around each use of the mirror, core.Iterate's calls into
// it included.
type mirror struct {
	core.Lifecycle
	jobs map[job.ID]*job.Job
	// srvSerial is the Serial of the last pull, and now the server's
	// clock then: a job the cycle starts starts at now.
	srvSerial uint64
	now       sim.Time
	// actions are this cycle's decisions; they stay until the next
	// delta, which undoes their placements in the cluster.
	actions []proto.SchedAction
}

// mirrorFillID marks the synthetic allocations that reproduce the
// server's per-node usage in the mirror cluster.
const mirrorFillID = job.ID(1 << 30)

func newMirror(st *proto.SchedState) (*mirror, error) {
	m := &mirror{
		Lifecycle: core.NewLifecycle(cluster.New(0, 0), nil, nil),
		jobs:      make(map[job.ID]*job.Job, len(st.Queued)+len(st.Active)),
		srvSerial: st.Serial,
		now:       sim.Time(st.NowMS),
	}
	if err := m.seatNodes(st.Nodes); err != nil {
		return nil, err
	}
	for _, list := range [][]proto.SchedJob{st.Queued, st.Active} {
		for i := range list {
			if err := m.place(&list[i], true); err != nil {
				return nil, err
			}
		}
	}
	m.setDyn(st.Dyn)
	return m, nil
}

// apply brings the mirror from the previous pull to this one.
func (m *mirror) apply(d *proto.SchedDelta) error {
	m.now = sim.Time(d.NowMS)
	if d.Serial == m.srvSerial && len(d.Jobs)+len(d.Tail)+len(m.actions) == 0 {
		return nil // nothing happened on either side: the epochs stand
	}
	m.srvSerial = d.Serial
	for _, a := range m.actions {
		m.Cluster().Release(job.ID(a.JobID))
	}
	m.actions = m.actions[:0]
	if err := m.seatNodes(d.Nodes); err != nil {
		return err
	}
	for i := range d.Jobs {
		if err := m.place(&d.Jobs[i], false); err != nil {
			return err
		}
	}
	for i := range d.Tail {
		if err := m.place(&d.Tail[i], true); err != nil {
			return err
		}
	}
	m.setDyn(d.Dyn)
	return nil
}

// seatNodes makes the mirror cluster's nodes, their states and their
// used cores (one synthetic allocation per node, so the planner sees
// correct idle counts) those of the server's node table.
func (m *mirror) seatNodes(nodes []proto.NodeStatus) error {
	cl := m.Cluster()
	for i, n := range nodes {
		if i == cl.NumNodes() {
			if !cluster.ValidNodeCores(n.Cores) {
				return fmt.Errorf("mauid: node %s has %d cores, outside [1, %d]", n.Name, n.Cores, cluster.MaxNodeCores)
			}
			cl.AddNode(n.Name, n.Cores)
		}
		state, used := cluster.Down, 0
		if n.State == "up" {
			state, used = cluster.Up, n.Used
		}
		if node := cl.Node(i); node.State == state && node.Used() == used {
			continue
		}
		fill := mirrorFillID + job.ID(i)
		cl.Release(fill)
		cl.SetNodeState(i, state)
		if used > 0 && cl.AllocateOn(fill, i, used) == nil {
			return fmt.Errorf("mauid: cannot mirror %d used cores on %s", used, n.Name)
		}
	}
	return nil
}

// place files the server's record of one job, overwriting whatever the
// mirror held for it. tail says the server appended the job to its
// queue since the last pull; a queued job is otherwise (re)seated where
// its key puts it. A job in a terminal state is forgotten.
func (m *mirror) place(sj *proto.SchedJob, tail bool) error {
	st, err := parseState(sj.State)
	if err != nil {
		return err
	}
	j := m.jobs[job.ID(sj.ID)]
	if j != nil {
		m.Forget(j)
	} else {
		j = new(job.Job)
		m.jobs[job.ID(sj.ID)] = j
	}
	class := job.Rigid
	if sj.Evolving {
		class = job.Evolving
	}
	j.Overwrite(job.Job{
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
	})
	if !m.File(j, tail) {
		delete(m.jobs, j.ID)
	}
	return nil
}

// setDyn replaces the pending dynamic requests with the server's list.
func (m *mirror) setDyn(reqs []proto.SchedDynReq) {
	dyn := make([]*job.DynRequest, 0, len(reqs))
	for _, dr := range reqs {
		if j := m.jobs[job.ID(dr.JobID)]; j != nil {
			dyn = append(dyn, &job.DynRequest{
				Job: j, Cores: dr.Cores, Nodes: dr.Nodes, PPN: dr.PPN, Seq: dr.Seq,
				Deadline: sim.Time(dr.DeadlineMS),
			})
		}
	}
	m.SetDyn(dyn)
}

// stateOf maps a wire state name back to the state.
var stateOf = func() map[string]job.State {
	t := make(map[string]job.State)
	for st := job.Queued; st <= job.Preempted; st++ {
		t[st.String()] = st
	}
	return t
}()

func parseState(s string) (job.State, error) {
	if st, ok := stateOf[s]; ok {
		return st, nil
	}
	return job.Queued, fmt.Errorf("mauid: unknown state %q", s)
}

func (m *mirror) StartJob(j *job.Job) (cluster.Alloc, error) {
	alloc, err := m.Start(j, 0, 0, m.now, nil)
	if err == nil {
		m.actions = append(m.actions, proto.SchedAction{Kind: "start", JobID: int(j.ID)})
	}
	return alloc, err
}

func (m *mirror) GrantDyn(r *job.DynRequest) (cluster.Alloc, error) {
	alloc, err := m.Grant(r, m.now)
	if err == nil {
		m.actions = append(m.actions, proto.SchedAction{Kind: "grant", JobID: int(r.Job.ID)})
	}
	return alloc, err
}

func (m *mirror) RejectDyn(r *job.DynRequest, reason string) {
	m.Reject(r, reason, m.now)
	m.actions = append(m.actions, proto.SchedAction{Kind: "reject", JobID: int(r.Job.ID), Reason: reason})
}

// Preempt is not available through the remote protocol; sites wanting
// preemption for dynamic requests run the embedded scheduler.
func (m *mirror) Preempt(j *job.Job) error {
	return fmt.Errorf("mauid: preemption not supported over the sched protocol")
}
