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
//
// Like the simulator, the server applies one change at a time: a
// single goroutine, the loop, owns all of its state. Connection
// goroutines only decode frames and hand the loop closures through a
// bounded inbox; whoever needs an answer from the loop waits for it
// (call) and writes its own reply.
package serverd

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
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
	// runs on the server's loop.
	OnBeacon func(lag time.Duration)
	// Verbose enables stderr logging.
	Verbose bool
}

const (
	// inboxSize bounds the loop's inbox; a full inbox blocks the
	// poster (a mom read loop, a client) until the loop catches up.
	// 256 lets a burst (a preload of submits, a wave of completions)
	// queue while the loop is in Iterate, and is applied as one round.
	inboxSize = 256
	// beaconRingSize is the capacity of the lock-free heartbeat ring the
	// monitor sweep drains in batch. A full ring falls back to posting
	// the stamp to the loop, so undersizing costs throughput, never
	// liveness.
	beaconRingSize = 1 << 16
)

// jobInfo is the server-side record of one job, owned by the loop.
type jobInfo struct {
	j      *job.Job
	spec   proto.JobSpec
	hosts  []proto.HostSlice
	msNode string // mother superior node name
	// wall and neg are the job's entries in the deadline heap: its
	// walltime while it runs, and its pending dyn request's
	// negotiation deadline.
	wall, neg *deadline
}

// nodeInfo mirrors one registered mom, owned by the loop. node is set
// once, before the record reaches the mom's read loop.
type nodeInfo struct {
	node     *cluster.Node
	addr     string
	conn     *proto.Conn
	lastSeen sim.Time // server-virtual time of the last message from this mom
	// verdicts buffers dyn grant/reject answers that could not be
	// delivered (link down, send failure); they replay in order on
	// the mom's re-registration so a blocked tm_dynget always
	// resolves.
	verdicts []proto.DynGetResp
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
	// monitor sweep without a trip through the inbox. Nil when
	// monitoring is off.
	beacons *beaconRing
	// inbox carries work to the loop, in the order it was posted.
	inbox chan func()
	// lastID is the id QSub gave the latest job. Ids are taken here,
	// not on the loop, so that a submit need not wait for the loop.
	lastID atomic.Int64
	// running is set by Start and cleared by Close; while it is unset
	// nothing drains the inbox, so post refuses.
	running atomic.Bool

	// The fields below, and those of every jobInfo and nodeInfo, are
	// read and written only on the loop goroutine.
	rm        serverRM             // the cluster and the job lifecycle
	nodes     map[string]*nodeInfo // by node name
	nodeByID  map[int]*nodeInfo    // by node id
	jobs      map[int]*jobInfo     // by job id
	deadlines deadlineHeap         // earliest first

	// touched is the sched sessions' change log, kept while one is open:
	// per lifecycle bump (and per job a commit names) the job's id shifted
	// left one bit, the low bit set for a queue-membership bump; oldest
	// first.
	// Sessions remember log positions; touched[0] is at touchBase.
	touched    []int
	touchBase  uint64
	schedLinks int // open sched sessions

	// ctx ends with Close, and every connection is closed with it.
	ctx     context.Context
	cancel  context.CancelFunc
	stopped chan struct{} //schedlint:chan-owner loop
	wg      sync.WaitGroup
}

// New creates a server daemon.
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
		handshakes: make(chan struct{}, opts.MaxHandshakes),
		inbox:      make(chan func(), inboxSize),
		stopped:    make(chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.rm = serverRM{Lifecycle: core.NewLifecycle(cluster.New(0, 0), fs, metrics.NewRecorder(0)), s: s}
	s.rm.OnBump = s.touch
	return s
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and
// starts the loop. QSub, QStat, QDel and Recorder are answered by the
// loop; before Start and from Close on they return at once, QSub with
// an error, QStat empty and Recorder nil.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.start = time.Now() //lint:wallclock anchors the daemon's virtual clock at startup
	if s.opts.HeartbeatInterval > 0 {
		s.beacons = newBeaconRing(beaconRingSize)
	}
	s.running.Store(true)
	s.wg.Add(2)
	go s.loop()
	go s.acceptLoop()
	return nil
}

// Addr returns the listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the daemon down and waits for the loop and every
// connection goroutine to end.
func (s *Server) Close() {
	s.running.Store(false)
	s.cancel()
	if s.ln != nil {
		s.ln.Close()
	}
	s.wg.Wait()
}

// post hands fn to the loop; false means the loop is not running (the
// server was never started, or is closing) and fn may never run.
func (s *Server) post(fn func()) bool {
	if !s.running.Load() {
		return false
	}
	select {
	case s.inbox <- fn:
		return true
	case <-s.ctx.Done():
		return false
	}
}

// call runs fn on the loop and waits for it to finish; false means the
// loop stopped, and fn may not have run.
func (s *Server) call(fn func()) bool {
	done := make(chan struct{})
	if !s.post(func() { fn(); close(done) }) {
		return false
	}
	select {
	case <-done:
		return true
	case <-s.stopped:
		return false
	}
}

// loop owns the server's state and applies one change at a time. A
// round applies every event already waiting in the inbox, fires the
// deadlines that are due, and then runs the embedded scheduler once if
// any of that changed the lifecycle's state — or when the poll
// interval's idle backstop ticks (Maui's timer-driven wakeup).
func (s *Server) loop() {
	defer s.wg.Done()
	defer close(s.stopped)
	var poll, sweep <-chan time.Time
	if s.opts.Sched != nil {
		t := time.NewTicker(s.opts.PollInterval) //lint:wallclock idle backstop for the event-driven scheduler
		defer t.Stop()
		poll = t.C
	}
	// The monitor sweep drains the beacon ring every quarter interval
	// and checks for silent moms once per whole interval.
	every, detectEvery := s.opts.HeartbeatInterval/4, 4
	if every <= 0 {
		every, detectEvery = s.opts.HeartbeatInterval, 1
	}
	if s.beacons != nil {
		t := time.NewTicker(every) //lint:wallclock heartbeat monitoring is a real-time liveness protocol
		defer t.Stop()
		sweep = t.C
	}
	// wake fires at armed, the earliest deadline when it was set. A
	// stale or early wake costs one empty round, never a missed deadline.
	wake := time.NewTimer(math.MaxInt64) //lint:wallclock walltime and negotiation deadlines are real protocol timeouts
	defer wake.Stop()
	armed := sim.Forever
	for ticks := 0; ; {
		epoch, iterate := s.rm.StateEpoch(), false
		select {
		case <-s.ctx.Done():
			return
		case fn := <-s.inbox:
			fn()
		case <-wake.C:
			armed = sim.Forever
		case <-poll:
			iterate = true
		case <-sweep:
			ticks++
			s.sweep(ticks%detectEvery == 0)
		}
		for n := len(s.inbox); n > 0; n-- {
			(<-s.inbox)()
		}
		s.fireDeadlines()
		if s.opts.Sched != nil && (iterate || s.rm.StateEpoch() != epoch) {
			s.opts.Sched.Iterate(s.now(), &s.rm)
		}
		if len(s.deadlines) > 0 && s.deadlines[0].at != armed {
			armed = s.deadlines[0].at
			wake.Reset(sim.ToReal(armed - s.now()))
		}
	}
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

// touchLogKeep is how many entries of the change log survive a trim;
// the log is trimmed when it holds twice as many.
const touchLogKeep = 1 << 14

// touch appends j to the change log, if a sched session is open to
// read it; it is also the lifecycle's bump hook.
func (s *Server) touch(j *job.Job, queueMove bool) {
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

// sendMom ships one message to a registered mom's persistent link,
// logging failures; the mom's read loop owns link teardown.
func (s *Server) sendMom(ni *nodeInfo, t proto.MsgType, payload any) {
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
		case <-s.ctx.Done():
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
	// Closing the connection with the server ends whatever waits on it:
	// a mom link, a sched session, or a peer still in the handshake
	// stage (a flood that never spoke, a peer mid-negotiation), whose
	// read would otherwise keep wg.Wait alive past HandshakeTimeout.
	defer context.AfterFunc(s.ctx, func() { _ = c.Close() })()
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
		s.serveMom(c, req) // takes ownership, runs the mom read loop
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

// serveMom registers the mom on the loop and then pumps its persistent
// link. A mom claiming no cores, or more than a node may have, is hung
// up on.
func (s *Server) serveMom(c *proto.Conn, req proto.RegisterReq) {
	if !cluster.ValidNodeCores(req.Cores) {
		s.logf("mom %s refused: %d cores, outside [1, %d]", req.Node, req.Cores, cluster.MaxNodeCores)
		_ = c.Close()
		return
	}
	var ni *nodeInfo
	if !s.call(func() { ni = s.register(c, req) }) {
		_ = c.Close()
		return
	}
	// The read loop is a frame pump: it decodes, notes liveness via the
	// lock-free beacon ring, and posts state changes to the loop in the
	// mom's order.
	for {
		env, err := c.Recv()
		if err != nil {
			// Link lost. Detach the connection (unless a newer
			// registration already replaced it) and let the heartbeat
			// monitor decide when silence becomes node death.
			s.post(func() {
				if ni.conn == c {
					ni.conn = nil
				}
			})
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
		if work != nil && !s.post(work) {
			return
		}
	}
}

// register adds the node, or takes a re-registering mom (restart or
// reconnection) back: the record is reused, the node repaired if it
// had been declared down, job state reconciled and undelivered
// verdicts replayed.
func (s *Server) register(c *proto.Conn, req proto.RegisterReq) *nodeInfo {
	defer s.rm.Bump(nil)
	ni, dup := s.nodes[req.Node]
	if !dup {
		n := s.rm.Cluster().AddNode(req.Node, req.Cores)
		ni = &nodeInfo{node: n, addr: req.Addr, conn: c, lastSeen: s.now()}
		s.nodes[req.Node] = ni
		s.nodeByID[n.ID] = ni
		s.rm.SetRecorder(metrics.NewRecorder(s.rm.Cluster().TotalCores()))
		s.logf("mom %s registered: %d cores at %s", req.Node, req.Cores, req.Addr)
		return ni
	}
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
	s.reconcileMom(ni, req.Jobs)
	s.replayVerdicts(ni)
	s.logf("mom %s re-registered at %s (%d jobs reported)", req.Node, req.Addr, len(req.Jobs))
	return ni
}

// noteBeacon records mom liveness without a trip through the inbox:
// the beacon lands in a lock-free ring the monitor sweep drains in
// batch. Ring overflow (a pathological burst outpacing the sweep)
// falls back to posting the stamp, so liveness evidence is never
// dropped. No-op when monitoring is disabled.
func (s *Server) noteBeacon(ni *nodeInfo, sentMS int64) {
	if s.beacons == nil {
		return
	}
	b := beacon{node: int32(ni.node.ID), sent: sentMS, at: s.now()}
	if !s.beacons.push(b) {
		s.post(func() { ni.lastSeen = max(ni.lastSeen, b.at) })
	}
}

// BeaconDrops reports how many liveness beacons overflowed the ring
// and were posted to the loop instead. A healthy deployment stays at
// zero; the soak test asserts it.
func (s *Server) BeaconDrops() uint64 {
	if s.beacons == nil {
		return 0
	}
	return s.beacons.dropped.Load()
}

// reconcileMom aligns server and mom job state after a
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
func (s *Server) reconcileMom(ni *nodeInfo, reported []int) {
	known := make(map[int]bool, len(reported))
	for _, id := range reported {
		known[id] = true
	}
	for _, j := range s.rm.JobsOn(ni.node.ID) {
		if known[int(j.ID)] {
			continue
		}
		s.logf("job %d lost on restarted mom %s", j.ID, ni.node.Name)
		s.failJobSlice(ni.node, j, "mom restarted without the job")
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
		s.sendMom(ni, proto.TKillJob, proto.KillJobReq{JobID: id})
	}
}

// replayVerdicts re-delivers buffered dyn verdicts to a freshly
// re-registered mom. Verdicts for jobs that are no longer active on
// this node are dropped (the job's fate was already settled and the
// kill path answered its parked TM connection).
func (s *Server) replayVerdicts(ni *nodeInfo) {
	pending := ni.verdicts
	ni.verdicts = nil
	for _, v := range pending {
		ji, ok := s.jobs[v.JobID]
		if !ok || !ji.j.Active() || ji.msNode != ni.node.Name {
			s.logf("dropping stale dyn verdict for job %d", v.JobID)
			continue
		}
		s.logf("replaying dyn verdict for job %d (granted=%v)", v.JobID, v.Granted)
		s.deliverVerdict(ji, v)
	}
}

// QSub enqueues a job and returns its id. The job is filed by the
// loop after QSub returns, before anything posted later; a QSub that
// races Close may return an id the stopping loop never files.
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
	id := int(s.lastID.Add(1))
	j.ID = job.ID(id)
	if !s.post(func() {
		s.rm.Submit(j, s.now())
		s.jobs[id] = &jobInfo{j: j, spec: spec}
	}) {
		return 0, fmt.Errorf("serverd: server not running")
	}
	s.logf("qsub job=%d user=%s cores=%d wall=%ds", id, spec.User, cores, spec.WallSecs)
	return id, nil
}

// QStat reports queue and node state.
func (s *Server) QStat() proto.QStatResp {
	var resp proto.QStatResp
	s.call(func() {
		now := s.now()
		for id := 1; id <= int(s.lastID.Load()); id++ {
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
		resp.Nodes = s.nodeStatus()
	})
	return resp
}

// nodeStatus renders the node table of qstat and of a sched.pull
// answer.
func (s *Server) nodeStatus() []proto.NodeStatus {
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
	s.call(func() {
		if ji, ok := s.jobs[id]; ok {
			s.kill(ji, "qdel")
		}
	})
}

// kill terminates a job in any state; a running one is charged for
// what it used.
func (s *Server) kill(ji *jobInfo, why string) {
	running := ji.j.Active()
	if !s.rm.Cancel(ji.j, s.now()) {
		return
	}
	if running {
		s.sendMom(s.nodes[ji.msNode], proto.TKillJob, proto.KillJobReq{JobID: int(ji.j.ID)})
	}
	s.disarm(&ji.wall, &ji.neg)
	s.logf("job %d killed (%s)", ji.j.ID, why)
}

// sweep is the heartbeat sink and, when detect is set, the failure
// detector. Every drained beacon advances its node's lastSeen
// (monotonically — a ring entry can be older than a posted stamp), and
// heartbeats carrying a sender wall clock feed the OnBeacon latency
// hook. Detection declares down every node whose mom has been silent
// for HeartbeatMisses intervals and routes each affected job through
// the failure policy — the live mirror of the simulator's rms.FailNode.
func (s *Server) sweep(detect bool) {
	var nowMS int64
	if s.opts.OnBeacon != nil {
		nowMS = time.Now().UnixMilli() //lint:wallclock beacon latency compares sender wall clocks carried in heartbeats
	}
	s.beacons.drain(func(b beacon) {
		ni := s.nodeByID[int(b.node)]
		if ni == nil {
			return
		}
		ni.lastSeen = max(ni.lastSeen, b.at)
		if s.opts.OnBeacon != nil && b.sent > 0 {
			s.opts.OnBeacon(time.Duration(nowMS-b.sent) * time.Millisecond)
		}
	})
	if !detect {
		return
	}
	now := s.now()
	window := sim.FromReal(s.opts.HeartbeatInterval) * sim.Duration(s.opts.HeartbeatMisses)
	for _, n := range s.rm.Cluster().Nodes() {
		if ni := s.nodeByID[n.ID]; n.State == cluster.Up && now-ni.lastSeen > window {
			s.logf("node %s declared down: silent for %s (window %s)",
				n.Name, sim.FormatTime(now-ni.lastSeen), sim.FormatTime(window))
			s.failNode(ni, "heartbeat timeout")
		}
	}
}

// failNode marks a node Down and handles every affected job per the
// failure policy, mirroring rms.FailNode: the dead cores are stripped
// from each allocation, then the job is requeued (restarting on spare
// nodes) or cancelled. Undelivered verdicts for the node are dropped —
// the applications they were meant for died with it.
func (s *Server) failNode(ni *nodeInfo, why string) {
	s.rm.Cluster().SetNodeState(ni.node.ID, cluster.Down)
	if ni.conn != nil {
		_ = ni.conn.Close()
		ni.conn = nil
	}
	ni.verdicts = nil
	for _, j := range s.rm.JobsOn(ni.node.ID) {
		s.failJobSlice(ni.node, j, why)
	}
	s.rm.Bump(nil)
}

// failJobSlice strips a job's cores on one dead node and applies the
// failure policy: requeue restarts the job from scratch (the scheduler
// will place it on spare capacity), cancel kills it. The original
// request size is restored first so a requeued job asks for what it
// was submitted with.
func (s *Server) failJobSlice(node *cluster.Node, j *job.Job, why string) {
	ji := s.jobs[int(j.ID)]
	if ji == nil || !j.Active() {
		return
	}
	origCores := j.Cores
	if lost := s.rm.StripNode(j, node.ID, s.now()); lost > 0 {
		ji.hosts = subtractHostSlices(ji.hosts, []proto.HostSlice{{Node: node.Name, Cores: lost}})
		j.Cores = origCores
	}
	switch s.opts.FailurePolicy {
	case rms.FailRequeue:
		if err := s.rm.Preempt(j); err != nil {
			s.logf("requeue job %d after %s: %v", j.ID, why, err)
			s.kill(ji, why)
			return
		}
		s.logf("job %d requeued (%s)", j.ID, why)
	default:
		s.kill(ji, why)
	}
}

// jobDone handles a completion report from a mother superior. from
// must be the job's current mother superior: a stale report from a mom
// the job was failed away from (requeued and restarted elsewhere) must
// not complete the new incarnation.
func (s *Server) jobDone(from *nodeInfo, done proto.JobDoneReq) {
	ji, ok := s.jobs[done.JobID]
	if !ok || !ji.j.Active() {
		return
	}
	if from != nil && ji.msNode != from.node.Name {
		s.logf("ignoring stale jobdone for %d from %s (ms is %s)", done.JobID, from.node.Name, ji.msNode)
		return
	}
	s.rm.Complete(ji.j, s.now())
	s.disarm(&ji.wall, &ji.neg)
	s.logf("job %d done", done.JobID)
}

// dynGet queues a forwarded tm_dynget: the job enters DynQueued and a
// scheduling cycle follows (Fig. 3 step 3-4). from is the mom that
// forwarded the request — it must be the job's mother superior.
func (s *Server) dynGet(from *nodeInfo, req proto.DynGetReq) {
	refuse := func(reason string) {
		s.sendMom(from, proto.TDynGetResp, proto.DynGetResp{JobID: req.JobID, Granted: false, Reason: reason})
	}
	ji, ok := s.jobs[req.JobID]
	if !ok || ji.j.State != job.Running {
		refuse("job not running")
		return
	}
	if from != nil && ji.msNode != from.node.Name {
		refuse("not the mother superior")
		return
	}
	r := &job.DynRequest{Job: ji.j, Cores: req.Cores, Nodes: req.Nodes, PPN: req.PPN, IssuedAt: s.now()}
	if req.TimeoutSecs > 0 {
		r.Deadline = r.IssuedAt + sim.Duration(req.TimeoutSecs)*sim.Second
	}
	if err := s.rm.QueueDyn(r); err != nil {
		refuse(err.Error())
		return
	}
	if r.Negotiable() {
		// If the request is still pending at its deadline, the loop
		// delivers the final rejection itself; the entry goes when the
		// request resolves early (grant, reject, kill).
		s.arm(&ji.neg, &deadline{at: r.Deadline, ji: ji, dyn: r})
	}
	s.logf("dynget queued job=%d timeout=%ds", req.JobID, req.TimeoutSecs)
}

// deliverVerdict ships a dyn verdict to the job's mother superior,
// buffering it for replay on re-registration when the link is down or
// the send fails — a granted or rejected tm_dynget must never leave
// the application parked forever.
func (s *Server) deliverVerdict(ji *jobInfo, resp proto.DynGetResp) {
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
	ji, ok := s.jobs[req.JobID]
	if !ok || !ji.j.Active() {
		return
	}
	if from != nil && ji.msNode != from.node.Name {
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
		s.logf("dynfree job=%d rejected: %v", req.JobID, err)
		return
	}
	ji.hosts = subtractHostSlices(ji.hosts, req.Hosts)
	s.logf("dynfree job=%d released %d cores", req.JobID, part.TotalCores())
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

// deadline is a job's walltime, or its pending dyn request's
// negotiation deadline, in the loop's heap.
type deadline struct {
	at  sim.Time
	ji  *jobInfo
	dyn *job.DynRequest // the negotiated request; nil for a walltime
	i   int             // index in the heap
}

// deadlineHeap is a container/heap of deadlines, earliest first.
type deadlineHeap []*deadline

func (h deadlineHeap) Len() int           { return len(h) }
func (h deadlineHeap) Less(a, b int) bool { return h[a].at < h[b].at }
func (h deadlineHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].i, h[b].i = a, b
}
func (h *deadlineHeap) Push(x any) {
	d := x.(*deadline)
	d.i = len(*h)
	*h = append(*h, d)
}
func (h *deadlineHeap) Pop() any {
	old := *h
	d := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return d
}

// arm puts d into the heap as *slot, replacing the deadline there.
func (s *Server) arm(slot **deadline, d *deadline) {
	s.disarm(slot)
	*slot = d
	heap.Push(&s.deadlines, d)
}

// disarm takes each slot's deadline, if any, out of the heap, so an
// ended, requeued or resolved job never fires a stale one.
func (s *Server) disarm(slots ...**deadline) {
	for _, slot := range slots {
		if d := *slot; d != nil {
			heap.Remove(&s.deadlines, d.i)
			*slot = nil
		}
	}
}

// fireDeadlines applies every deadline that is due: a walltime kills
// its job, a negotiation deadline rejects the request if it is still
// pending.
func (s *Server) fireDeadlines() {
	for now := s.now(); len(s.deadlines) > 0 && s.deadlines[0].at <= now; {
		d := s.deadlines[0]
		if d.dyn == nil {
			s.disarm(&d.ji.wall)
			s.kill(d.ji, "walltime")
			continue
		}
		s.disarm(&d.ji.neg)
		if s.rm.PendingDyn(d.dyn.Job.ID) == d.dyn {
			s.rm.RejectDyn(d.dyn, "negotiation deadline expired")
		}
	}
}

// Recorder exposes live metrics (waiting times, utilization); nil when
// the server is not running. The recorder itself is the loop's: read it
// only while the server is quiescent, with no job moving.
func (s *Server) Recorder() *metrics.Recorder {
	var rec *metrics.Recorder
	s.call(func() { rec = s.rm.Recorder() })
	return rec
}
