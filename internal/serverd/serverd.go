// Package serverd implements the live batch server daemon (the
// pbs_server analog): it accepts mom registrations, client commands
// (qsub/qstat/qdel) and forwarded dynamic requests over TCP, tracks
// the cluster and job state, and drives the scheduler — either the
// embedded one (default) or an external Maui-analog daemon speaking
// the sched.pull/sched.commit protocol (see internal/mauid).
//
// The scheduler and the job lifecycle are internal/core's — the same
// code the simulator runs; only the side effects differ (serverRM):
// StartJob sends RunJob to the job's mother superior, GrantDyn answers
// the forwarded tm_dynget with the new hostlist.
package serverd

import (
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/rms"
	"repro/internal/sim"
)

// Options configures a server daemon.
type Options struct {
	// Sched is the scheduler to embed. Nil disables the embedded
	// scheduler (external-scheduler mode: a mauid daemon must drive
	// scheduling via the sched protocol).
	Sched *core.Scheduler
	// PollInterval bounds the embedded scheduler's idle period.
	PollInterval time.Duration
	// HeartbeatInterval enables failure detection: a mom whose last
	// message (heartbeat or otherwise) is older than
	// HeartbeatMisses×HeartbeatInterval is declared down, its node is
	// marked Down, and every affected job is routed through
	// FailurePolicy — the live analog of the simulator's
	// rms.FailNode. Zero (the default) disables detection entirely;
	// the failure layer is inert.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many whole intervals may pass silently
	// before a node is declared down (default 3).
	HeartbeatMisses int
	// FailurePolicy selects what happens to jobs that lose cores when
	// a node dies: rms.FailCancel (default) kills them, rms.FailRequeue
	// restarts them from scratch on the surviving nodes — the paper's
	// "allocating spare nodes to affected jobs" path.
	FailurePolicy rms.FailurePolicy
	// HandshakeTimeout bounds how long an inbound connection may take
	// to deliver its first message before being dropped, so a hung or
	// byte-dribbling peer cannot pin an accept goroutine forever.
	// Zero disables the deadline.
	HandshakeTimeout time.Duration
	// ProtoMode selects the wire codec offered to inbound peers (see
	// proto.Mode): auto (the zero value) negotiates the binary v2
	// framing with new moms while still serving v1 JSON clients; v1
	// pins the JSON codec even for peers that propose v2.
	ProtoMode proto.Mode
	// MaxHandshakes bounds how many accepted connections may sit in the
	// pre-classification stage (version handshake + first message) at
	// once (default 256). A connect flood queues in the kernel accept
	// backlog instead of spawning an unbounded goroutine per SYN.
	MaxHandshakes int
	// OnBeacon, when set, is called by the monitor sweep with the
	// sender-to-stamp latency of every heartbeat carrying a SentMS
	// wall clock — the soak test's measurement hook. Keep it cheap; it
	// runs on the monitor goroutine.
	OnBeacon func(lag time.Duration)
	// Verbose enables stderr logging.
	Verbose bool
}

const (
	// ingestWorkers sizes the shared pool that applies mom messages
	// (job completions, dynamic requests) to server state. Per-mom
	// ordering is preserved by sharding on node id, so lock contention
	// scales with the pool size rather than the mom count.
	ingestWorkers = 4
	// beaconRingSize is the capacity of the lock-free heartbeat ring the
	// monitor sweep drains in batch. A full ring falls back to locked
	// stamping, so undersizing costs throughput, never liveness.
	beaconRingSize = 1 << 16
)

// jobInfo is the server-side record of one job. The record lives in
// the jobs map and shares its lock: every mutable field is guarded by
// the server mutex, written from the scheduler loop, the ingest
// shards, and the walltime/negotiation timer callbacks.
type jobInfo struct {
	j         *job.Job
	spec      proto.JobSpec
	hosts     []proto.HostSlice // guarded by s.mu
	msNode    string            // guarded by s.mu: mother superior node name
	killTimer *time.Timer       // guarded by s.mu
	negTimer  *time.Timer       // guarded by s.mu: negotiation deadline; stopped when the dyn request resolves
}

// stopTimersLocked disarms the job's walltime and negotiation timers
// and lets go of them: s.jobs keeps every record for qstat, and a
// stopped timer kept with it is ~80 bytes per finished job for nothing.
// Caller holds s.mu.
func (ji *jobInfo) stopTimersLocked() {
	stopTimer(&ji.killTimer)
	stopTimer(&ji.negTimer)
}

// stopTimer disarms *t, if armed, and clears it.
func stopTimer(t **time.Timer) {
	if *t != nil {
		(*t).Stop()
		*t = nil
	}
}

// nodeInfo mirrors one registered mom. Like jobInfo, the record is
// reached through an s.mu-guarded map and inherits that lock.
type nodeInfo struct {
	node     *cluster.Node
	addr     string      // guarded by s.mu
	conn     *proto.Conn // guarded by s.mu
	shard    int         // ingest worker index; fixed at first registration
	lastSeen sim.Time    // guarded by s.mu: server-virtual time of the last message from this mom
	// verdicts buffers dyn grant/reject answers that could not be
	// delivered (link down, send failure); they replay in order on
	// the mom's re-registration so a blocked tm_dynget always
	// resolves.
	verdicts []proto.DynGetResp // guarded by s.mu
}

// Server is the live daemon.
type Server struct {
	opts Options

	ln    net.Listener
	start time.Time

	// handshakes is the pre-classification semaphore: a slot is held
	// from accept until the connection's first message is dispatched.
	handshakes chan struct{}
	// beacons carries liveness observations from mom read loops to the
	// monitor sweep without touching s.mu. Nil when monitoring is off.
	beacons *beaconRing
	// ingest is the sharded work queue feeding the ingestLoop pool;
	// moms map to a fixed shard so their messages apply in order.
	ingest []chan func()

	mu       sync.Mutex
	rm       serverRM                 // guarded by mu: the cluster and the job lifecycle
	nodes    map[string]*nodeInfo     // by node name; guarded by mu
	nodeByID map[int]*nodeInfo        // guarded by mu
	pending  map[*proto.Conn]struct{} // pre-classification conns; guarded by mu
	jobs     map[int]*jobInfo         // guarded by mu

	// touched is the sched sessions' change log, kept while one is open:
	// per lifecycle bump (and per job a commit names) the job's id shifted
	// left one bit, the low bit set for a queue-membership bump; oldest
	// first.
	// Sessions remember log positions; touched[0] is at touchBase.
	touched    []int  // guarded by mu
	touchBase  uint64 // guarded by mu
	schedLinks int    // guarded by mu: open sched sessions

	kick   chan struct{}
	closed chan struct{} //schedlint:chan-owner Close
	wg     sync.WaitGroup
}

// New creates a server daemon.
//
//lint:locked the server is not shared until New returns
func New(opts Options) *Server {
	if opts.PollInterval <= 0 {
		opts.PollInterval = 2 * time.Second
	}
	if opts.HeartbeatMisses <= 0 {
		opts.HeartbeatMisses = 3
	}
	if opts.MaxHandshakes <= 0 {
		opts.MaxHandshakes = 256
	}
	var fs *core.Fairshare
	if opts.Sched != nil {
		fs = opts.Sched.Fairshare()
	}
	s := &Server{
		opts:       opts,
		nodes:      make(map[string]*nodeInfo),
		nodeByID:   make(map[int]*nodeInfo),
		jobs:       make(map[int]*jobInfo),
		pending:    make(map[*proto.Conn]struct{}),
		handshakes: make(chan struct{}, opts.MaxHandshakes),
		kick:       make(chan struct{}, 1),
		closed:     make(chan struct{}),
	}
	s.rm = serverRM{Lifecycle: core.NewLifecycle(cluster.New(0, 0), fs, metrics.NewRecorder(0)), s: s}
	s.rm.OnBump = s.touchLocked
	return s
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port).
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.start = time.Now() //lint:wallclock anchors the daemon's virtual clock at startup
	s.ingest = make([]chan func(), ingestWorkers)
	for i := range s.ingest {
		s.ingest[i] = make(chan func(), 64)
		s.wg.Add(1)
		go s.ingestLoop(s.ingest[i])
	}
	if s.opts.HeartbeatInterval > 0 {
		s.beacons = newBeaconRing(beaconRingSize)
		s.wg.Add(1)
		go s.monitorLoop()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if s.opts.Sched != nil {
		s.wg.Add(1)
		go s.schedLoop()
	}
	return nil
}

// Addr returns the listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the daemon down.
func (s *Server) Close() {
	select {
	case <-s.closed:
		return
	default:
		close(s.closed)
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for _, n := range s.nodes {
		if n.conn != nil {
			_ = n.conn.Close()
		}
	}
	// Connections still in the handshake stage (a flood that never
	// spoke, a peer mid-negotiation) would otherwise keep their read
	// loops — and wg.Wait — alive past HandshakeTimeout.
	for c := range s.pending {
		_ = c.Close()
	}
	for _, ji := range s.jobs {
		ji.stopTimersLocked()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// now returns the virtual-time view of the wall clock: milliseconds
// since server start, which is what the shared scheduler core plans in.
//
//lint:wallclock the daemon's virtual time is real time elapsed since Start
func (s *Server) now() sim.Time { return sim.FromReal(time.Since(s.start)) }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Verbose {
		fmt.Fprintf(os.Stderr, "serverd "+format+"\n", args...)
	}
}

// Kick requests a scheduling cycle (state changed).
func (s *Server) Kick() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// touchLogKeep is how many entries of the change log survive a trim;
// the log is trimmed when it holds twice as many.
const touchLogKeep = 1 << 14

// touchLocked appends j to the change log, if a sched session is open
// to read it; it is also the lifecycle's bump hook. Caller holds s.mu.
func (s *Server) touchLocked(j *job.Job, queueMove bool) {
	if s.schedLinks == 0 || j == nil {
		return
	}
	if len(s.touched) == 2*touchLogKeep {
		s.touched = s.touched[:copy(s.touched, s.touched[touchLogKeep:])]
		s.touchBase += touchLogKeep
	}
	t := int(j.ID) << 1
	if queueMove {
		t |= 1
	}
	s.touched = append(s.touched, t)
}

// reply delivers a best-effort response on a transient client
// connection and closes it; a qsub/qstat client vanishing mid-reply
// is routine, so failures are logged rather than propagated.
func (s *Server) reply(c *proto.Conn, t proto.MsgType, payload any) {
	if err := c.Send(t, payload); err != nil {
		s.logf("reply %s: %v", t, err)
	}
	if err := c.Close(); err != nil {
		s.logf("close after %s: %v", t, err)
	}
}

// sendMomLocked ships one message to a registered mom's persistent
// link, logging failures; the registerMom Recv loop owns link teardown.
// Caller holds s.mu.
func (s *Server) sendMomLocked(ni *nodeInfo, t proto.MsgType, payload any) {
	if ni == nil || ni.conn == nil {
		return
	}
	if err := ni.conn.Send(t, payload); err != nil {
		s.logf("mom %s send %s: %v", ni.node.Name, t, err)
	}
}

// acceptLoop classifies inbound connections by their first message.
// The handshake semaphore bounds the pre-classification stage: when
// MaxHandshakes peers are already mid-handshake, further connects wait
// in the kernel accept backlog instead of each getting a goroutine.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		select {
		case s.handshakes <- struct{}{}:
		case <-s.closed:
			_ = c.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(proto.NewConn(c))
		}()
	}
}

func (s *Server) handleConn(c *proto.Conn) {
	released := false
	release := func() {
		if !released {
			released = true
			<-s.handshakes
		}
	}
	defer release()
	if !s.trackConn(c) {
		_ = c.Close() // raced shutdown
		return
	}
	defer s.untrackConn(c)
	// A peer that connects and then stalls must not pin this goroutine:
	// the version handshake and first message both have to arrive
	// within the handshake window.
	c.SetReadTimeout(s.opts.HandshakeTimeout)
	if err := c.AcceptHandshake(s.opts.ProtoMode); err != nil {
		_ = c.Close()
		return
	}
	env, err := c.Recv()
	if err != nil {
		_ = c.Close()
		return
	}
	//schedlint:dispatch server.conn
	switch env.Type {
	case proto.TRegister:
		var req proto.RegisterReq
		if err := env.Decode(&req); err != nil {
			_ = c.Close()
			return
		}
		// The mom link is persistent and heartbeat-monitored: the
		// per-message read deadline comes off, and the handshake slot
		// frees up before the long-lived read loop starts.
		c.SetReadTimeout(0)
		release()
		s.registerMom(c, req) // takes ownership, runs the mom read loop
	case proto.TQSub:
		var spec proto.JobSpec
		if err := env.Decode(&spec); err != nil {
			s.reply(c, proto.TQSubResp, proto.QSubResp{Error: err.Error()})
		} else {
			id, err := s.QSub(spec)
			resp := proto.QSubResp{JobID: id}
			if err != nil {
				resp.Error = err.Error()
			}
			s.reply(c, proto.TQSubResp, resp)
		}
	case proto.TQStat:
		s.reply(c, proto.TQStatResp, s.QStat())
	case proto.TQDel:
		var req proto.QDelReq
		if err := env.Decode(&req); err == nil {
			s.QDel(req.JobID)
		}
		s.reply(c, proto.TOK, nil)
	case proto.TSchedPull, proto.TSchedCommit:
		// An external scheduler's link is persistent like a mom's; a
		// one-shot client is a session of one message.
		c.SetReadTimeout(0)
		release()
		s.schedSession(c, env)
	default:
		s.reply(c, proto.TError, proto.ErrorResp{Error: fmt.Sprintf("unexpected %s", env.Type)})
	}
}

// trackConn records a not-yet-classified connection so Close can tear
// it down; false means the server is already shutting down. Without
// this, flood connections that never speak would outlive Close and
// wedge wg.Wait on their read loops until HandshakeTimeout fired.
func (s *Server) trackConn(c *proto.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.pending[c] = struct{}{}
	return true
}

func (s *Server) untrackConn(c *proto.Conn) {
	s.mu.Lock()
	delete(s.pending, c)
	s.mu.Unlock()
}

// registerMom adds the node and serves the mom's persistent link. A
// mom claiming no cores, or more than a node may have, is hung up on.
func (s *Server) registerMom(c *proto.Conn, req proto.RegisterReq) {
	if !cluster.ValidNodeCores(req.Cores) {
		s.logf("mom %s refused: %d cores, outside [1, %d]", req.Node, req.Cores, cluster.MaxNodeCores)
		_ = c.Close()
		return
	}
	s.mu.Lock()
	ni, dup := s.nodes[req.Node]
	if dup {
		// Re-registration (mom restart or reconnection): reuse the
		// node record, repair the node if it had been declared down,
		// reconcile job state and replay any undelivered verdicts.
		if ni.conn != nil && ni.conn != c {
			_ = ni.conn.Close() // stale link; its read loop will exit
		}
		ni.addr = req.Addr
		ni.conn = c
		ni.lastSeen = s.now()
		if ni.node.State != cluster.Up {
			s.rm.Cluster().SetNodeState(ni.node.ID, cluster.Up)
			s.logf("node %s repaired by re-registration", req.Node)
		}
		s.reconcileMomLocked(ni, req.Jobs)
		s.replayVerdictsLocked(ni)
		s.rm.Bump(nil)
		s.mu.Unlock()
		s.logf("mom %s re-registered at %s (%d jobs reported)", req.Node, req.Addr, len(req.Jobs))
	} else {
		n := s.rm.Cluster().AddNode(req.Node, req.Cores)
		ni = &nodeInfo{node: n, addr: req.Addr, conn: c, shard: n.ID % len(s.ingest), lastSeen: s.now()}
		s.nodes[req.Node] = ni
		s.nodeByID[n.ID] = ni
		s.rm.SetRecorder(metrics.NewRecorder(s.rm.Cluster().TotalCores()))
		s.rm.Bump(nil)
		s.mu.Unlock()
		s.logf("mom %s registered: %d cores at %s", req.Node, req.Cores, req.Addr)
	}
	s.Kick()
	// The read loop is a frame pump: it decodes, notes liveness via the
	// lock-free beacon ring, and hands state mutation to the mom's
	// ingest shard. The seed took s.mu here for every message — at 10k
	// moms heartbeating each interval, that serialized every reader
	// against the scheduler's own lock.
	for {
		env, err := c.Recv()
		if err != nil {
			// Link lost. Detach the connection (unless a newer
			// registration already replaced it) and let the heartbeat
			// monitor decide when silence becomes node death.
			s.mu.Lock()
			if ni.conn == c {
				ni.conn = nil
			}
			s.mu.Unlock()
			return
		}
		var work func()
		var sent int64
		//schedlint:dispatch server.mom
		switch env.Type {
		case proto.THeartbeat:
			var hb proto.HeartbeatReq
			_ = env.Decode(&hb) // a malformed beacon still proves liveness
			sent = hb.SentMS
		case proto.TJobDone:
			var done proto.JobDoneReq
			if err := env.Decode(&done); err == nil {
				work = func() { s.jobDone(ni, done) }
			}
		case proto.TDynGet:
			var dg proto.DynGetReq
			if err := env.Decode(&dg); err == nil {
				work = func() { s.dynGet(ni, dg) }
			}
		case proto.TDynFree:
			var df proto.DynFreeReq
			if err := env.Decode(&df); err == nil {
				work = func() { s.dynFree(ni, df) }
			}
		}
		s.noteBeacon(ni, sent)
		if work == nil {
			continue
		}
		select {
		case s.ingest[ni.shard] <- work:
		case <-s.closed:
			return
		}
	}
}

// noteBeacon records mom liveness without taking s.mu: the beacon
// lands in a lock-free ring the monitor sweep drains in batch. Ring
// overflow (a pathological burst outpacing the sweep) falls back to
// the locked stamp so liveness evidence is never dropped. No-op when
// monitoring is disabled.
func (s *Server) noteBeacon(ni *nodeInfo, sentMS int64) {
	if s.beacons == nil {
		return
	}
	b := beacon{node: int32(ni.node.ID), sent: sentMS, at: s.now()}
	if s.beacons.push(b) {
		return
	}
	s.mu.Lock()
	if b.at > ni.lastSeen {
		ni.lastSeen = b.at
	}
	s.mu.Unlock()
}

// BeaconDrops reports how many liveness beacons overflowed the ring
// and took the locked fallback path. A healthy deployment stays at
// zero; the soak test asserts it.
func (s *Server) BeaconDrops() uint64 {
	if s.beacons == nil {
		return 0
	}
	return s.beacons.dropped.Load()
}

// ingestLoop applies queued mom work. A fixed pool replaces the
// seed's state mutation inside every per-mom read goroutine, so
// contention on s.mu is bounded by the pool size, not the mom count.
func (s *Server) ingestLoop(ch chan func()) {
	defer s.wg.Done()
	for {
		select {
		case <-s.closed:
			return
		case fn := <-ch:
			fn()
		}
	}
}

// reconcileMomLocked aligns server and mom job state after a
// re-registration. reported is the mom's view (ids it still hosts or
// has an undelivered completion for). Two directions:
//
//   - a job the server placed on this node that the mom no longer
//     knows is gone for good (the mom restarted): its cores on this
//     node are stripped and the job goes through the failure policy,
//     exactly as if the node had been declared down;
//   - a job the mom reports but the server has moved past (cancelled,
//     requeued elsewhere, completed) is killed on the mom so no
//     zombie keeps burning cores.
//
// Caller holds s.mu.
func (s *Server) reconcileMomLocked(ni *nodeInfo, reported []int) {
	known := make(map[int]bool, len(reported))
	for _, id := range reported {
		known[id] = true
	}
	for _, j := range s.rm.JobsOn(ni.node.ID) {
		if known[int(j.ID)] {
			continue
		}
		s.logf("job %d lost on restarted mom %s", j.ID, ni.node.Name)
		s.failJobSliceLocked(ni.node, j, "mom restarted without the job")
	}
	ids := append([]int(nil), reported...)
	sort.Ints(ids)
	for _, id := range ids {
		if ji := s.jobs[id]; ji != nil && ji.j.Active() &&
			(s.rm.CoresOn(ji.j.ID, ni.node.ID) > 0 || ji.msNode == ni.node.Name) {
			continue // consistent on both sides
		}
		// Unknown to the server (or no longer placed here): kill the
		// mom-side remnant. Harmless if the mom races a completion.
		s.sendMomLocked(ni, proto.TKillJob, proto.KillJobReq{JobID: id})
	}
}

// replayVerdictsLocked re-delivers buffered dyn verdicts to a freshly
// re-registered mom. Verdicts for jobs that are no longer active on
// this node are dropped (the job's fate was already settled and the
// kill path answered its parked TM connection). Caller holds s.mu.
func (s *Server) replayVerdictsLocked(ni *nodeInfo) {
	pending := ni.verdicts
	ni.verdicts = nil
	for _, v := range pending {
		ji, ok := s.jobs[v.JobID]
		if !ok || !ji.j.Active() || ji.msNode != ni.node.Name {
			s.logf("dropping stale dyn verdict for job %d", v.JobID)
			continue
		}
		s.logf("replaying dyn verdict for job %d (granted=%v)", v.JobID, v.Granted)
		s.deliverVerdictLocked(ji, v)
	}
}

// QSub enqueues a job and returns its id.
func (s *Server) QSub(spec proto.JobSpec) (int, error) {
	cores := spec.Cores
	if spec.Nodes > 0 {
		if !cluster.ValidNodeCores(spec.PPN) {
			return 0, fmt.Errorf("serverd: ppn %d outside [1, %d]", spec.PPN, cluster.MaxNodeCores)
		}
		if spec.Nodes > math.MaxInt/spec.PPN {
			return 0, fmt.Errorf("serverd: %d nodes × %d ppn overflows", spec.Nodes, spec.PPN)
		}
		cores = spec.Nodes * spec.PPN
	}
	if cores <= 0 {
		return 0, fmt.Errorf("serverd: job requests no resources")
	}
	if spec.WallSecs <= 0 {
		return 0, fmt.Errorf("serverd: job needs a walltime")
	}
	if spec.WallSecs > int64(sim.Forever/sim.Second) {
		return 0, fmt.Errorf("serverd: walltime %ds too long", spec.WallSecs)
	}
	class := job.Rigid
	if spec.Evolving {
		class = job.Evolving
	}
	j := &job.Job{
		Name: spec.Name,
		Cred: job.Credentials{
			User: spec.User, Group: spec.Group, Account: spec.Account,
		},
		Class:          class,
		Cores:          cores,
		Walltime:       sim.Duration(spec.WallSecs) * sim.Second,
		SystemPriority: spec.SystemPriority,
	}
	s.mu.Lock()
	s.rm.Submit(j, s.now())
	id := int(j.ID)
	s.jobs[id] = &jobInfo{j: j, spec: spec}
	s.mu.Unlock()
	s.logf("qsub job=%d user=%s cores=%d wall=%ds", id, spec.User, cores, spec.WallSecs)
	s.Kick()
	return id, nil
}

// QStat reports queue and node state.
func (s *Server) QStat() proto.QStatResp {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	var resp proto.QStatResp
	for id := 1; id <= s.rm.Submitted(); id++ {
		ji, ok := s.jobs[id]
		if !ok {
			continue
		}
		j := ji.j
		wait := float64(0)
		if j.StartTime > 0 || j.State != job.Queued {
			wait = sim.SecondsOf(j.StartTime - j.SubmitTime)
		} else {
			wait = sim.SecondsOf(now - j.SubmitTime)
		}
		resp.Jobs = append(resp.Jobs, proto.JobStatus{
			ID: id, Name: j.Name, User: j.Cred.User, State: j.State.String(),
			Cores: j.Cores, DynCores: j.DynCores, WaitSecs: wait, Hosts: ji.hosts,
		})
	}
	resp.Nodes = s.nodeStatusLocked()
	return resp
}

// nodeStatusLocked renders the node table of qstat and of a sched.pull
// answer. Caller holds s.mu.
func (s *Server) nodeStatusLocked() []proto.NodeStatus {
	nodes := s.rm.Cluster().Nodes()
	out := sized[proto.NodeStatus](len(nodes))
	for _, n := range nodes {
		out = append(out, proto.NodeStatus{
			Name: n.Name, Cores: n.Cores, Used: n.Used(), State: n.State.String(),
		})
	}
	return out
}

// QDel cancels a job.
func (s *Server) QDel(id int) {
	s.mu.Lock()
	ji, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	s.killLocked(ji, "qdel")
	s.mu.Unlock()
	s.Kick()
}

// killLocked terminates a job in any state; a running one is charged
// for what it used. Caller holds s.mu.
func (s *Server) killLocked(ji *jobInfo, why string) {
	running := ji.j.Active()
	if !s.rm.Cancel(ji.j, s.now()) {
		return
	}
	if running {
		s.sendMomLocked(s.nodes[ji.msNode], proto.TKillJob, proto.KillJobReq{JobID: int(ji.j.ID)})
	}
	ji.stopTimersLocked()
	s.logf("job %d killed (%s)", ji.j.ID, why)
}

// monitorLoop is the failure detector and the heartbeat sink: it
// drains the beacon ring every quarter interval (batched stamping —
// one lock acquisition per sweep instead of one per message) and, once
// per whole interval, declares any node down whose mom has been silent
// for HeartbeatMisses intervals, routing every affected job through
// the failure policy — the live mirror of the simulator's rms.FailNode.
func (s *Server) monitorLoop() {
	defer s.wg.Done()
	sweep := s.opts.HeartbeatInterval / 4
	detectEvery := 4
	if sweep <= 0 {
		sweep = s.opts.HeartbeatInterval
		detectEvery = 1
	}
	t := time.NewTicker(sweep) //lint:wallclock heartbeat monitoring is a real-time liveness protocol
	defer t.Stop()
	window := sim.FromReal(s.opts.HeartbeatInterval) * sim.Duration(s.opts.HeartbeatMisses)
	ticks := 0
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
		}
		s.sweepBeacons()
		ticks++
		if ticks%detectEvery != 0 {
			continue
		}
		s.mu.Lock()
		now := s.now()
		names := make([]string, 0, len(s.nodes))
		for name := range s.nodes {
			names = append(names, name)
		}
		sort.Strings(names)
		changed := false
		for _, name := range names {
			ni := s.nodes[name]
			if ni.node.State != cluster.Up {
				continue
			}
			if now-ni.lastSeen <= window {
				continue
			}
			s.logf("node %s declared down: silent for %s (window %s)",
				name, sim.FormatTime(now-ni.lastSeen), sim.FormatTime(window))
			s.failNodeLocked(ni, "heartbeat timeout")
			changed = true
		}
		s.mu.Unlock()
		if changed {
			s.Kick()
		}
	}
}

// sweepBeacons applies the batched liveness observations: every
// beacon advances its node's lastSeen (monotonically — a ring entry
// can be older than a locked-fallback stamp), and heartbeats carrying
// a sender wall clock feed the OnBeacon latency hook.
func (s *Server) sweepBeacons() {
	var lags []time.Duration
	var nowMS int64
	if s.opts.OnBeacon != nil {
		nowMS = time.Now().UnixMilli() //lint:wallclock beacon latency compares sender wall clocks carried in heartbeats
	}
	s.mu.Lock()
	s.beacons.drain(func(b beacon) {
		ni := s.nodeByID[int(b.node)] //lint:locked the drain callback runs synchronously under the s.mu.Lock above
		if ni == nil {
			return
		}
		if b.at > ni.lastSeen { //lint:locked the drain callback runs synchronously under the s.mu.Lock above
			ni.lastSeen = b.at //lint:locked the drain callback runs synchronously under the s.mu.Lock above
		}
		if s.opts.OnBeacon != nil && b.sent > 0 {
			lags = append(lags, time.Duration(nowMS-b.sent)*time.Millisecond)
		}
	})
	s.mu.Unlock()
	for _, lag := range lags {
		s.opts.OnBeacon(lag)
	}
}

// failNodeLocked marks a node Down and handles every affected job per
// the failure policy, mirroring rms.FailNode: the dead cores are
// stripped from each allocation, then the job is requeued (restarting
// on spare nodes) or cancelled. Undelivered verdicts for the node are
// dropped — the applications they were meant for died with it.
// Caller holds s.mu.
func (s *Server) failNodeLocked(ni *nodeInfo, why string) {
	s.rm.Cluster().SetNodeState(ni.node.ID, cluster.Down)
	if ni.conn != nil {
		_ = ni.conn.Close()
		ni.conn = nil
	}
	ni.verdicts = nil
	for _, j := range s.rm.JobsOn(ni.node.ID) {
		s.failJobSliceLocked(ni.node, j, why)
	}
	s.rm.Bump(nil)
}

// failJobSliceLocked strips a job's cores on one dead node and applies
// the failure policy: requeue restarts the job from scratch (the
// scheduler will place it on spare capacity), cancel kills it. The
// original request size is restored first so a requeued job asks for
// what it was submitted with. Caller holds s.mu.
func (s *Server) failJobSliceLocked(node *cluster.Node, j *job.Job, why string) {
	ji := s.jobs[int(j.ID)]
	if ji == nil || !j.Active() {
		return
	}
	origCores := j.Cores
	if s.rm.StripNode(j, node.ID, s.now()) > 0 {
		ji.hosts = removeNodeSlices(ji.hosts, node.Name)
		j.Cores = origCores
	}
	switch s.opts.FailurePolicy {
	case rms.FailRequeue:
		if err := s.rm.Preempt(j); err != nil {
			s.logf("requeue job %d after %s: %v", j.ID, why, err)
			s.killLocked(ji, why)
			return
		}
		s.logf("job %d requeued (%s)", j.ID, why)
	default:
		s.killLocked(ji, why)
	}
}

// removeNodeSlices drops every host slice on the named node.
func removeNodeSlices(hosts []proto.HostSlice, node string) []proto.HostSlice {
	out := hosts[:0:0]
	for _, h := range hosts {
		if h.Node != node {
			out = append(out, h)
		}
	}
	return out
}

// jobDone handles a completion report from a mother superior. from
// must be the job's current mother superior: a stale report from a mom
// the job was failed away from (requeued and restarted elsewhere) must
// not complete the new incarnation.
func (s *Server) jobDone(from *nodeInfo, done proto.JobDoneReq) {
	s.mu.Lock()
	ji, ok := s.jobs[done.JobID]
	if !ok || !ji.j.Active() {
		s.mu.Unlock()
		return
	}
	if from != nil && ji.msNode != from.node.Name {
		s.mu.Unlock()
		s.logf("ignoring stale jobdone for %d from %s (ms is %s)", done.JobID, from.node.Name, ji.msNode)
		return
	}
	s.rm.Complete(ji.j, s.now())
	ji.stopTimersLocked()
	s.mu.Unlock()
	s.logf("job %d done", done.JobID)
	s.Kick()
}

// dynGet queues a forwarded tm_dynget: the job enters DynQueued and a
// scheduling cycle is triggered (Fig. 3 step 3-4). from is the mom
// that forwarded the request — it must be the job's mother superior.
func (s *Server) dynGet(from *nodeInfo, req proto.DynGetReq) {
	s.mu.Lock()
	ji, ok := s.jobs[req.JobID]
	if !ok || ji.j.State != job.Running {
		s.mu.Unlock()
		s.answerDynTo(from, proto.DynGetResp{JobID: req.JobID, Granted: false, Reason: "job not running"})
		return
	}
	if from != nil && ji.msNode != from.node.Name {
		s.mu.Unlock()
		s.answerDynTo(from, proto.DynGetResp{JobID: req.JobID, Granted: false, Reason: "not the mother superior"})
		return
	}
	r := &job.DynRequest{Job: ji.j, Cores: req.Cores, Nodes: req.Nodes, PPN: req.PPN, IssuedAt: s.now()}
	if req.TimeoutSecs > 0 {
		r.Deadline = r.IssuedAt + sim.Duration(req.TimeoutSecs)*sim.Second
	}
	if err := s.rm.QueueDyn(r); err != nil {
		s.mu.Unlock()
		s.answerDynTo(from, proto.DynGetResp{JobID: req.JobID, Granted: false, Reason: err.Error()})
		return
	}
	if req.TimeoutSecs > 0 {
		// Negotiation deadline: if the request is still pending when
		// it expires, deliver the final rejection ourselves. The timer
		// is stored on the job record and stopped when the request
		// resolves early (grant, reject, kill), so no resolved
		// negotiation leaves a timer behind.
		//lint:wallclock negotiation deadlines are real protocol timeouts
		ji.negTimer = time.AfterFunc(time.Duration(req.TimeoutSecs)*time.Second, func() {
			s.mu.Lock()
			if s.rm.PendingDyn(r.Job.ID) == r {
				s.rm.RejectDyn(r, "negotiation deadline expired")
			}
			s.mu.Unlock()
		})
	}
	s.mu.Unlock()
	s.logf("dynget queued job=%d timeout=%ds", req.JobID, req.TimeoutSecs)
	s.Kick()
}

// answerDynTo delivers an immediate error verdict to the mom that
// forwarded a dyn request.
func (s *Server) answerDynTo(ni *nodeInfo, resp proto.DynGetResp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sendMomLocked(ni, proto.TDynGetResp, resp)
}

// deliverVerdictLocked ships a dyn verdict to the job's mother
// superior, buffering it for replay on re-registration when the link
// is down or the send fails — a granted or rejected tm_dynget must
// never leave the application parked forever. Caller holds s.mu.
func (s *Server) deliverVerdictLocked(ji *jobInfo, resp proto.DynGetResp) {
	ni := s.nodes[ji.msNode]
	if ni == nil {
		s.logf("dyn verdict for job %d has no mother superior; dropped", resp.JobID)
		return
	}
	if ni.conn != nil {
		if err := ni.conn.Send(proto.TDynGetResp, resp); err == nil {
			return
		} else {
			s.logf("dyn verdict job=%d send: %v; buffering for replay", resp.JobID, err)
		}
	}
	ni.verdicts = append(ni.verdicts, resp)
}

// dynFree releases part of an allocation (Fig. 4 step 3-4). from must
// be the job's mother superior.
func (s *Server) dynFree(from *nodeInfo, req proto.DynFreeReq) {
	s.mu.Lock()
	ji, ok := s.jobs[req.JobID]
	if !ok || !ji.j.Active() {
		s.mu.Unlock()
		return
	}
	if from != nil && ji.msNode != from.node.Name {
		s.mu.Unlock()
		s.logf("ignoring dynfree for %d from %s (ms is %s)", req.JobID, from.node.Name, ji.msNode)
		return
	}
	var part cluster.Alloc
	for _, h := range req.Hosts {
		if ni, ok := s.nodes[h.Node]; ok {
			part = append(part, cluster.Slice{NodeID: ni.node.ID, Cores: h.Cores})
		}
	}
	if err := s.rm.Release(ji.j, part, s.now()); err != nil {
		s.mu.Unlock()
		s.logf("dynfree job=%d rejected: %v", req.JobID, err)
		return
	}
	ji.hosts = subtractHostSlices(ji.hosts, req.Hosts)
	s.mu.Unlock()
	s.logf("dynfree job=%d released %d cores", req.JobID, part.TotalCores())
	s.Kick()
}

func subtractHostSlices(have, remove []proto.HostSlice) []proto.HostSlice {
	removed := make(map[string]int)
	for _, r := range remove {
		removed[r.Node] += r.Cores
	}
	out := have[:0:0]
	for _, h := range have {
		if take := removed[h.Node]; take > 0 {
			if take >= h.Cores {
				removed[h.Node] -= h.Cores
				continue
			}
			h.Cores -= take
			removed[h.Node] = 0
		}
		out = append(out, h)
	}
	return out
}

// schedLoop runs the embedded scheduler: iterate on every kick, with
// the poll interval as an idle backstop (Maui's timer-driven wakeup).
func (s *Server) schedLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.PollInterval) //lint:wallclock idle backstop for the kick-driven scheduler
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-s.kick:
		case <-t.C:
		}
		s.mu.Lock()
		s.opts.Sched.Iterate(s.now(), &s.rm)
		s.mu.Unlock()
	}
}

// Recorder exposes live metrics (waiting times, utilization).
func (s *Server) Recorder() *metrics.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rm.Recorder()
}
