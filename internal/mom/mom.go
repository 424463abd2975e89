// Package mom implements the compute-node daemon (the pbs_mom analog).
// Every mom listens on its own TCP address for the TM interface
// (applications) and for mom↔mom coordination (join, dyn_join,
// dyn_disjoin), and keeps one persistent connection to the server.
//
// When the server starts a job, it sends RunJob to the first allocated
// host — the job's mother superior. The mother superior joins the
// sibling moms, launches the application, forwards its tm_dynget /
// tm_dynfree calls to the server (Fig. 3 / Fig. 4 of the paper), and
// reports completion.
package mom

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/proto"
	"repro/internal/tm"
)

// GoApp is an in-process application launched by a "go:" job script.
// ctx is cancelled when the job is killed; tmc is the job's TM handle.
type GoApp func(ctx context.Context, tmc *tm.Context) error

var (
	appMu    sync.RWMutex
	appFuncs = map[string]GoApp{}
)

// RegisterGoApp makes an in-process application available to "go:"
// job scripts in this process. Registering the same name twice panics:
// it is always a programming error.
func RegisterGoApp(name string, fn GoApp) {
	appMu.Lock()
	defer appMu.Unlock()
	if _, dup := appFuncs[name]; dup {
		panic(fmt.Sprintf("mom: duplicate go app %q", name))
	}
	appFuncs[name] = fn
}

func lookupGoApp(name string) (GoApp, bool) {
	appMu.RLock()
	defer appMu.RUnlock()
	fn, ok := appFuncs[name]
	return fn, ok
}

// momJob is the node-local state of one job this mom is mother superior
// of. Records live in the m.mu-guarded jobs map and share that lock: the
// TM handler goroutines, the server read loop, and Close all mutate
// them.
type momJob struct {
	id     int
	hosts  []proto.HostSlice // guarded by m.mu
	cancel context.CancelFunc
	// pendingTM is the parked application connection awaiting a
	// tm_dynget verdict from the server.
	pendingTM *proto.Conn // guarded by m.mu
}

// outMsg is one undelivered server message parked for replay: a job
// completion must reach the server even when it is reported during a
// link outage, or the job stays "running" forever on the headnode.
type outMsg struct {
	t       proto.MsgType
	jobID   int
	payload any
}

// Mom is one compute-node daemon.
type Mom struct {
	name  string
	cores int

	// HeartbeatInterval enables the periodic liveness beacon on the
	// server link. Pair it with the server's HeartbeatInterval so an
	// otherwise idle node is not declared down. Zero disables beacons.
	HeartbeatInterval time.Duration
	// AutoReconnect makes the mom re-dial and re-register (with
	// capped exponential backoff and deterministic jitter) when the
	// server link drops, instead of going silent until restarted.
	AutoReconnect bool
	// ReconnectBase and ReconnectMax bound the reconnect backoff
	// (defaults 100ms and 5s).
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// HandshakeTimeout bounds how long an inbound TM/join connection
	// may take to deliver its first message, and an outbound dial to the
	// server or a sister with its handshake. Zero disables it.
	HandshakeTimeout time.Duration
	// Proto selects the wire codec (see proto.Mode): auto (the zero
	// value) negotiates binary v2 with new peers and falls back to v1
	// JSON against old ones, on both the server link and inbound
	// TM/mom connections.
	Proto proto.Mode

	ln      net.Listener
	addr    string // ln's address, set once by Start
	srvAddr string

	// sisters holds the links this mom dialled to sibling moms (join,
	// dyn_join, dyn_disjoin): one per sister, kept between jobs.
	sisters *proto.LinkCache

	mu      sync.Mutex
	srv     *proto.Conn              // guarded by mu: current server link
	jobs    map[int]*momJob          // guarded by mu: jobs this mom is mother superior of
	sister  map[int]int              // guarded by mu: cores held here for jobs of other mother superiors, by job id
	outbox  []outMsg                 // guarded by mu: undelivered completions awaiting replay
	inbound map[*proto.Conn]struct{} // guarded by mu: accepted connections being served, for Close to end

	wg     sync.WaitGroup
	closed chan struct{} //schedlint:chan-owner Close

	// Verbose enables lightweight logging to stderr.
	Verbose bool
}

// New creates a mom for a node with the given name and core count.
func New(name string, cores int) *Mom {
	return &Mom{
		name: name, cores: cores, jobs: make(map[int]*momJob), sister: make(map[int]int),
		inbound: make(map[*proto.Conn]struct{}), closed: make(chan struct{}),
	}
}

// Name returns the node name.
func (m *Mom) Name() string { return m.name }

// Addr returns the mom's listen address (valid after Start).
func (m *Mom) Addr() string { return m.addr }

// Start listens on listenAddr (use "127.0.0.1:0" for an ephemeral
// port), registers with the server at srvAddr, and begins serving.
func (m *Mom) Start(listenAddr, srvAddr string) error {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return fmt.Errorf("mom %s: listen: %w", m.name, err)
	}
	m.ln = ln
	m.addr = ln.Addr().String()
	m.srvAddr = srvAddr
	m.sisters = proto.NewLinkCache(m.Proto, m.HandshakeTimeout)
	srv, err := m.dialRegister()
	if err != nil {
		ln.Close()
		return fmt.Errorf("mom %s: %w", m.name, err)
	}
	m.mu.Lock()
	m.srv = srv
	m.mu.Unlock()
	m.wg.Add(2)
	go m.serveLoop()
	go m.serverLoop(srv)
	if m.HeartbeatInterval > 0 {
		m.wg.Add(1)
		go m.heartbeatLoop()
	}
	return nil
}

// dialRegister opens a fresh server link and re-registers, reporting
// the jobs this mom still knows about so the server can reconcile.
func (m *Mom) dialRegister() (*proto.Conn, error) {
	srv, err := proto.DialModeTimeout(m.srvAddr, m.Proto, m.HandshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial server: %w", err)
	}
	req := proto.RegisterReq{
		Node: m.name, Addr: m.addr, Cores: m.cores,
		Jobs: m.knownJobs(),
	}
	if err := srv.Send(proto.TRegister, req); err != nil {
		_ = srv.Close()
		return nil, fmt.Errorf("register: %w", err)
	}
	return srv, nil
}

// knownJobs lists jobs this mom still hosts plus jobs whose completion
// report is parked on the outbox (finished but not yet acknowledged by
// a delivery), sorted for a deterministic wire image.
func (m *Mom) knownJobs() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[int]bool, len(m.jobs)+len(m.sister)+len(m.outbox))
	for id := range m.jobs {
		seen[id] = true
	}
	for id := range m.sister {
		seen[id] = true
	}
	for _, om := range m.outbox {
		seen[om.jobID] = true
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// server returns the current server link (nil during an outage).
func (m *Mom) server() *proto.Conn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.srv
}

func (m *Mom) isClosed() bool {
	select {
	case <-m.closed:
		return true
	default:
		return false
	}
}

// Close stops the daemon and kills local jobs.
func (m *Mom) Close() {
	select {
	case <-m.closed:
		return
	default:
		close(m.closed)
	}
	if m.ln != nil {
		m.ln.Close()
	}
	if srv := m.server(); srv != nil {
		_ = srv.Close()
	}
	if m.sisters != nil {
		m.sisters.Close()
	}
	m.mu.Lock()
	// A sister's session, or a peer that connected and never spoke, ends
	// when the peer hangs up — which a peer that is still up may never
	// do. The handlers drop their own entries as they return.
	for c := range m.inbound {
		_ = c.Close()
	}
	ids := make([]int, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var parked []*proto.Conn
	for _, id := range ids {
		j := m.jobs[id]
		if j.cancel != nil {
			j.cancel()
		}
		// A parked tm_dynget will never get its verdict now: fail it so
		// the application is not left blocked on a dead daemon.
		if j.pendingTM != nil {
			parked = append(parked, j.pendingTM)
			j.pendingTM = nil
		}
	}
	m.mu.Unlock()
	for _, c := range parked {
		m.reply(c, proto.TTMResp, proto.TMResp{OK: false, Reason: "mom shutting down"})
	}
	m.wg.Wait()
}

func (m *Mom) logf(format string, args ...any) {
	if m.Verbose {
		fmt.Fprintf(os.Stderr, "mom[%s] "+format+"\n", append([]any{m.name}, args...)...)
	}
}

// reply delivers a best-effort response on a transient per-request
// connection and closes it. The peer vanishing mid-reply is routine
// for a daemon, so failures are logged rather than propagated.
func (m *Mom) reply(c *proto.Conn, t proto.MsgType, payload any) {
	if err := c.Send(t, payload); err != nil {
		m.logf("reply %s: %v", t, err)
	}
	if err := c.Close(); err != nil {
		m.logf("close after %s: %v", t, err)
	}
}

// tellServer sends one best-effort message on the persistent server
// link. A send failure is logged; the serverLoop Recv error is what
// actually tears the link down, so no state is unwound here.
func (m *Mom) tellServer(t proto.MsgType, payload any) {
	srv := m.server()
	if srv == nil {
		m.logf("server send %s: link down", t)
		return
	}
	if err := srv.Send(t, payload); err != nil {
		m.logf("server send %s: %v", t, err)
	}
}

// tellServerBuffered sends a must-deliver message (a job completion):
// if the link is down or the send fails, the message is parked on the
// outbox and replayed after the next successful re-registration.
func (m *Mom) tellServerBuffered(t proto.MsgType, jobID int, payload any) {
	if srv := m.server(); srv != nil {
		if err := srv.Send(t, payload); err == nil {
			return
		} else {
			m.logf("server send %s job=%d: %v (buffering)", t, jobID, err)
		}
	}
	m.mu.Lock()
	m.outbox = append(m.outbox, outMsg{t: t, jobID: jobID, payload: payload})
	m.mu.Unlock()
}

// flushOutbox replays parked completions after a reconnect. A message
// that fails again goes back on the front of the outbox in order.
func (m *Mom) flushOutbox(c *proto.Conn) {
	m.mu.Lock()
	pending := m.outbox
	m.outbox = nil
	m.mu.Unlock()
	for i, om := range pending {
		if err := c.Send(om.t, om.payload); err != nil {
			m.logf("outbox replay %s job=%d: %v", om.t, om.jobID, err)
			m.mu.Lock()
			m.outbox = append(pending[i:], m.outbox...)
			m.mu.Unlock()
			return
		}
		m.logf("outbox replayed %s job=%d", om.t, om.jobID)
	}
}

// serveLoop accepts TM and mom↔mom connections.
func (m *Mom) serveLoop() {
	defer m.wg.Done()
	for {
		c, err := m.ln.Accept()
		if err != nil {
			return
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.handleConn(proto.NewConn(c))
		}()
	}
}

// trackConn records an accepted connection so that Close can end it;
// false means the mom is already closing.
func (m *Mom) trackConn(c *proto.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.isClosed() {
		return false
	}
	m.inbound[c] = struct{}{}
	return true
}

func (m *Mom) untrackConn(c *proto.Conn) {
	m.mu.Lock()
	delete(m.inbound, c)
	m.mu.Unlock()
}

// handleConn serves one inbound connection (an application's TM call
// or a sibling mom's link).
func (m *Mom) handleConn(c *proto.Conn) {
	if !m.trackConn(c) {
		_ = c.Close()
		return
	}
	defer m.untrackConn(c)
	c.SetReadTimeout(m.HandshakeTimeout)
	if err := c.AcceptHandshake(m.Proto); err != nil {
		_ = c.Close()
		return
	}
	env, err := c.Recv()
	if err != nil {
		_ = c.Close()
		return
	}
	c.SetReadTimeout(0)
	//schedlint:dispatch mom.conn
	switch env.Type {
	case proto.TTMDynGet:
		var req proto.TMDynGetReq
		if err := env.Decode(&req); err != nil {
			m.tmFail(c, err.Error())
			return
		}
		m.handleTMDynGet(c, req)
		// Connection is parked until the server answers; do not close.
	case proto.TTMDynFree:
		var req proto.TMDynFreeReq
		if err := env.Decode(&req); err != nil {
			m.tmFail(c, err.Error())
			return
		}
		m.handleTMDynFree(c, req)
	case proto.TTMDone:
		var req proto.TMDoneReq
		if err := env.Decode(&req); err != nil {
			m.tmFail(c, err.Error())
			return
		}
		m.tellServerBuffered(proto.TJobDone, req.JobID, proto.JobDoneReq{JobID: req.JobID, Error: req.Error})
		m.reply(c, proto.TTMResp, proto.TMResp{OK: true})
	case proto.TJoin, proto.TDynJoin, proto.TDynDisjoin:
		// A sister's link is persistent like the server's; an old mom
		// that hangs up after one reply is a session of one message.
		m.sisterSession(c, env)
	default:
		m.reply(c, proto.TError, proto.ErrorResp{Error: fmt.Sprintf("unexpected %s", env.Type)})
	}
}

// sisterSession serves one sibling mom's link until it fails or the
// peer hangs up, starting with env, the message that classified it:
// one reply per request, in order. The dialling mom owns the link's
// lifetime — it keeps the link between jobs and closes it when idle —
// so there is no read deadline here; Close ends the session through
// the inbound set.
func (m *Mom) sisterSession(c *proto.Conn, env *proto.Envelope) {
	defer c.Close()
	for {
		var err error
		//schedlint:dispatch mom.sister
		switch env.Type {
		case proto.TJoin, proto.TDynJoin, proto.TDynDisjoin:
			var req proto.JoinReq
			if derr := env.Decode(&req); derr != nil {
				err = c.Send(proto.TError, proto.ErrorResp{Error: derr.Error()})
				break
			}
			if env.Type == proto.TDynDisjoin {
				m.handleDisjoin(req)
			} else {
				m.handleJoin(req, env.Type == proto.TDynJoin)
			}
			err = c.Send(proto.TOK, nil)
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

func (m *Mom) tmFail(c *proto.Conn, reason string) {
	m.reply(c, proto.TTMResp, proto.TMResp{OK: false, Reason: reason})
}

// handleTMDynGet forwards the request to the server through this mom
// (which must be the job's mother superior) and parks the application
// connection until the verdict arrives.
func (m *Mom) handleTMDynGet(c *proto.Conn, req proto.TMDynGetReq) {
	m.mu.Lock()
	j, ok := m.jobs[req.JobID]
	_, joined := m.sister[req.JobID]
	switch {
	case joined:
		m.mu.Unlock()
		m.tmFail(c, "tm_dynget must go through the mother superior")
		return
	case !ok:
		m.mu.Unlock()
		m.tmFail(c, fmt.Sprintf("job %d unknown on %s", req.JobID, m.name))
		return
	case j.pendingTM != nil:
		m.mu.Unlock()
		m.tmFail(c, "a dynamic request is already pending for this job")
		return
	}
	j.pendingTM = c
	m.mu.Unlock()
	m.logf("forwarding tm_dynget job=%d cores=%d nodes=%dx%d", req.JobID, req.Cores, req.Nodes, req.PPN)
	var err error
	if srv := m.server(); srv != nil {
		err = srv.Send(proto.TDynGet, proto.DynGetReq{
			JobID: req.JobID, Cores: req.Cores, Nodes: req.Nodes, PPN: req.PPN,
			TimeoutSecs: req.TimeoutSecs,
		})
	} else {
		err = fmt.Errorf("link down")
	}
	if err != nil {
		m.mu.Lock()
		j.pendingTM = nil
		m.mu.Unlock()
		m.tmFail(c, "server unreachable: "+err.Error())
	}
}

// handleTMDynFree performs dyn_disjoin with the released moms, informs
// the server and answers the application (Fig. 4).
func (m *Mom) handleTMDynFree(c *proto.Conn, req proto.TMDynFreeReq) {
	m.mu.Lock()
	j, ok := m.jobs[req.JobID]
	if !ok {
		m.mu.Unlock()
		m.tmFail(c, "job unknown or not mother superior")
		return
	}
	// Remove the slices from the local host view.
	j.hosts = subtractHosts(j.hosts, req.Hosts)
	m.mu.Unlock()
	m.fanOut(proto.TDynDisjoin, proto.JoinReq{JobID: req.JobID, Hosts: req.Hosts})
	srv := m.server()
	if srv == nil {
		m.tmFail(c, "server unreachable: link down")
		return
	}
	if err := srv.Send(proto.TDynFree, proto.DynFreeReq{JobID: req.JobID, Hosts: req.Hosts}); err != nil {
		m.tmFail(c, "server unreachable: "+err.Error())
		return
	}
	// tm_dynfree "usually returns true" (§III-B).
	m.reply(c, proto.TTMResp, proto.TMResp{OK: true})
}

// handleJoin records a job of another mother superior that this node
// now holds cores for. A sister keeps of the host list only how many
// cores are its own — all that handleDisjoin needs — so the record of a
// joined job is a map slot, not the decoded request.
func (m *Mom) handleJoin(req proto.JoinReq, dynamic bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cores := ownCores(req.Hosts, m.name)
	if dynamic {
		cores += m.sister[req.JobID]
	}
	m.sister[req.JobID] = cores
	m.logf("join job=%d dynamic=%v cores=%d", req.JobID, dynamic, cores)
}

// handleDisjoin gives back released cores (and forgets the job when
// this node no longer holds any).
func (m *Mom) handleDisjoin(req proto.JoinReq) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cores, ok := m.sister[req.JobID]
	if !ok {
		return
	}
	if cores -= ownCores(req.Hosts, m.name); cores > 0 {
		m.sister[req.JobID] = cores
	} else {
		delete(m.sister, req.JobID)
	}
}

// ownCores sums the slices of hosts that are on node.
func ownCores(hosts []proto.HostSlice, node string) int {
	n := 0
	for _, h := range hosts {
		if h.Node == node {
			n += h.Cores
		}
	}
	return n
}

func subtractHosts(have, remove []proto.HostSlice) []proto.HostSlice {
	out := have[:0:0]
	removed := make(map[string]int)
	for _, r := range remove {
		removed[r.Node] += r.Cores
	}
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

// notifyMom performs one fire-and-confirm exchange with a sibling mom,
// on the link kept for it.
func (m *Mom) notifyMom(addr string, t proto.MsgType, req proto.JoinReq) {
	if _, err := m.sisters.Request(addr, t, req); err != nil {
		m.logf("notify %s %s: %v", addr, t, err)
	}
}

// fanOut sends req as one t request to each distinct sister in
// req.Hosts — this mom and repeated addresses excluded — all at once,
// and returns when every one is answered or has failed. A node named
// twice gets one request: the sister sums the node's slices from the
// host list itself, so a second one would count them twice.
func (m *Mom) fanOut(t proto.MsgType, req proto.JoinReq) {
	addrs := make([]string, 0, 8)
	for _, h := range req.Hosts {
		if h.Addr != m.addr && !slices.Contains(addrs, h.Addr) {
			addrs = append(addrs, h.Addr)
		}
	}
	switch len(addrs) {
	case 0:
		return
	case 1:
		m.notifyMom(addrs[0], t, req)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(addrs))
	for _, addr := range addrs {
		go func() {
			defer wg.Done()
			m.notifyMom(addr, t, req)
		}()
	}
	wg.Wait()
}

// serverLoop handles messages from the server, re-dialing on link loss
// when AutoReconnect is set.
func (m *Mom) serverLoop(conn *proto.Conn) {
	defer m.wg.Done()
	for {
		m.recvLoop(conn)
		if m.isClosed() || !m.AutoReconnect {
			return
		}
		var ok bool
		conn, ok = m.reconnect()
		if !ok {
			return
		}
	}
}

// recvLoop drains one server link until it errors out.
func (m *Mom) recvLoop(c *proto.Conn) {
	for {
		env, err := c.Recv()
		if err != nil {
			m.mu.Lock()
			if m.srv == c {
				m.srv = nil
			}
			m.mu.Unlock()
			_ = c.Close()
			return
		}
		//schedlint:dispatch mom.server
		switch env.Type {
		case proto.TRunJob:
			var req proto.RunJobReq
			if err := env.Decode(&req); err == nil {
				m.runJob(req)
			}
		case proto.TKillJob:
			var req proto.KillJobReq
			if err := env.Decode(&req); err == nil {
				m.killJob(req.JobID)
			}
		case proto.TDynGetResp:
			var resp proto.DynGetResp
			if err := env.Decode(&resp); err == nil {
				m.handleDynGetResp(resp)
			}
		}
	}
}

// reconnect re-dials the server with capped exponential backoff and
// deterministic per-node jitter until it succeeds or the mom closes.
func (m *Mom) reconnect() (*proto.Conn, bool) {
	pol := backoff.Policy{Base: m.ReconnectBase, Max: m.ReconnectMax}
	rng := backoff.NewRand(m.name)
	for attempt := 0; ; attempt++ {
		select {
		case <-m.closed:
			return nil, false
		case <-time.After(pol.Delay(attempt, rng)): //lint:wallclock reconnect backoff paces real network retries
		}
		srv, err := m.dialRegister()
		if err != nil {
			m.logf("reconnect attempt %d: %v", attempt+1, err)
			continue
		}
		if !m.installServerConn(srv) {
			return nil, false
		}
		m.logf("reconnected to server after %d attempt(s)", attempt+1)
		m.flushOutbox(srv)
		return srv, true
	}
}

// installServerConn publishes a freshly dialed server link, unless the
// mom closed while the dial was in flight. Close() already closed
// whatever link it saw, so it can never see this one: installing it
// would park serverLoop in Recv on a connection nobody closes and hang
// Close's wg.Wait. Close() publishes m.closed before reading m.srv
// under mu, so checking under the same mutex makes the install atomic
// against it; the losing side discards the connection.
func (m *Mom) installServerConn(srv *proto.Conn) bool {
	m.mu.Lock()
	if m.isClosed() {
		m.mu.Unlock()
		_ = srv.Close()
		return false
	}
	m.srv = srv
	m.mu.Unlock()
	return true
}

// heartbeatLoop sends a periodic liveness beacon so the server can
// tell a slow node from a dead one.
func (m *Mom) heartbeatLoop() {
	defer m.wg.Done()
	//lint:wallclock heartbeats are a real-time liveness protocol
	t := time.NewTicker(m.HeartbeatInterval)
	defer t.Stop()
	// One request reused across beats: with the v2 codec the whole
	// send path is then allocation-free.
	req := &proto.HeartbeatReq{Node: m.name}
	for {
		select {
		case <-m.closed:
			return
		case <-t.C:
		}
		req.Seq++
		req.SentMS = time.Now().UnixMilli() //lint:wallclock heartbeat latency instrumentation carries the sender wall clock
		m.tellServer(proto.THeartbeat, req)
	}
}

// runJob makes this mom the job's mother superior: join the siblings,
// then launch the application. Only the record is made here, on the
// server read loop; the joins and the launch run on the job's own
// goroutine, so a slow sister holds up this job and no other message.
func (m *Mom) runJob(req proto.RunJobReq) {
	m.logf("run job=%d script=%q hosts=%d", req.JobID, req.Spec.Script, len(req.Hosts))
	ctx, cancel := context.WithCancel(context.Background())
	j := &momJob{id: req.JobID, hosts: req.Hosts, cancel: cancel}
	m.mu.Lock()
	m.jobs[req.JobID] = j
	delete(m.sister, req.JobID) // a requeued job's earlier run may have left cores of it here
	m.mu.Unlock()

	tmc := &tm.Context{JobID: req.JobID, MomAddr: m.addr, Proto: m.Proto}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		// Initial join with the sibling moms (Fig. 2: the mother superior
		// and the allocated nodes perform a join operation), confirmed
		// before the application starts. A job killed meanwhile never
		// starts: killJob has dropped its record, so nothing is reported.
		m.fanOut(proto.TJoin, proto.JoinReq{JobID: req.JobID, Hosts: req.Hosts})
		var err error
		if ctx.Err() == nil {
			err = m.launch(ctx, req.Spec.Script, tmc)
		}
		// The application controller finished (or was killed): report
		// completion unless the kill already did.
		m.mu.Lock()
		_, still := m.jobs[req.JobID]
		delete(m.jobs, req.JobID)
		m.mu.Unlock()
		if still && ctx.Err() == nil {
			done := proto.JobDoneReq{JobID: req.JobID}
			if err != nil {
				done.Error = err.Error()
			}
			m.tellServerBuffered(proto.TJobDone, req.JobID, done)
		}
	}()
}

// launch interprets the job script.
func (m *Mom) launch(ctx context.Context, script string, tmc *tm.Context) error {
	kind, arg, _ := strings.Cut(script, ":")
	switch kind {
	case "sleep":
		d, err := time.ParseDuration(arg)
		if err != nil {
			return fmt.Errorf("mom: bad sleep script %q: %v", script, err)
		}
		select {
		case <-time.After(d): //lint:wallclock sleep-script jobs model application runtime with a real delay
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case "go":
		fn, ok := lookupGoApp(arg)
		if !ok {
			return fmt.Errorf("mom: unknown go app %q", arg)
		}
		return fn(ctx, tmc)
	case "exec":
		fields := strings.Fields(arg)
		if len(fields) == 0 {
			return fmt.Errorf("mom: empty exec script")
		}
		cmd := exec.CommandContext(ctx, fields[0], fields[1:]...)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%d", tm.EnvJobID, tmc.JobID),
			fmt.Sprintf("%s=%s", tm.EnvMomAddr, tmc.MomAddr),
			fmt.Sprintf("%s=%s", tm.EnvProto, tmc.Proto),
		)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		return cmd.Run()
	default:
		return fmt.Errorf("mom: unknown script kind %q", kind)
	}
}

// killJob terminates a local job (walltime enforcement or qdel).
func (m *Mom) killJob(id int) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	delete(m.jobs, id)
	delete(m.sister, id)
	m.mu.Unlock()
	if !ok {
		return
	}
	m.logf("kill job=%d", id)
	if j.cancel != nil {
		j.cancel()
	}
	if j.pendingTM != nil {
		m.reply(j.pendingTM, proto.TTMResp, proto.TMResp{OK: false, Reason: "job killed"})
	}
}

// handleDynGetResp resolves a parked tm_dynget: on a grant, dyn_join
// the new hosts first (Fig. 3 step 6), then hand the hostlist to the
// application (step 7).
func (m *Mom) handleDynGetResp(resp proto.DynGetResp) {
	m.mu.Lock()
	j, ok := m.jobs[resp.JobID]
	var parked *proto.Conn
	if ok {
		parked = j.pendingTM
		j.pendingTM = nil
		if resp.Granted {
			j.hosts = append(j.hosts, resp.Hosts...)
		}
	}
	m.mu.Unlock()
	if resp.Granted {
		m.fanOut(proto.TDynJoin, proto.JoinReq{JobID: resp.JobID, Dynamic: true, Hosts: resp.Hosts})
	}
	if parked == nil {
		return
	}
	m.reply(parked, proto.TTMResp, proto.TMResp{OK: resp.Granted, Reason: resp.Reason, Hosts: resp.Hosts})
}

// Jobs returns the ids of jobs this mom currently participates in.
func (m *Mom) Jobs() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.jobs)+len(m.sister))
	for id := range m.jobs {
		out = append(out, id)
	}
	for id := range m.sister {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
