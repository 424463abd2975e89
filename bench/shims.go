package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mauid"
	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/serverd"
	"repro/internal/tm"
)

// The shim runs split the live path at the one boundary that can be
// reached from outside the product code, the wire between server and
// mom. In the shim-mom run the driver plays every mom against a real
// server; in the shim-server run it plays the server against real
// moms. Each side is then timed with the other answering at once.

// Sizes of the layer runs: the workload's shape, capped so a traced
// run stays well inside the contract's per-run limit.
const (
	shimDepthCap   = 20000 // queued jobs in the shim-mom drain
	shimMauidCap   = 5000  // queued jobs under the mauid RunOnce probe
	shimMomsCap    = 256   // shim connections
	shimSiblings   = 4     // real sibling moms in the join and dyn_join probes
	shimOpenRate   = 400.0 // jobs/s of the shim-mom open-loop phase
	shimOpenWindow = 1500 * time.Millisecond
)

// shimMoms plays a cluster of moms: each connection registers, then
// answers every RunJob with a JobDone at once, stamping arrivals.
type shimMoms struct {
	conns    []*proto.Conn
	wg       sync.WaitGroup
	origin   time.Time
	arrival  []atomic.Int64 // ns since origin of each job's RunJob, by job id
	arrived  atomic.Int64
	heldJob  atomic.Int64 // job id whose JobDone is withheld (the gate), 0 = none
	heldConn atomic.Int64 // index of the connection the held job arrived on

	mu         sync.Mutex
	turnaround []float64 // guarded by mu: µs from a JobDone sent to the next RunJob on that mom
}

func newShimMoms(addr string, n, cores, maxJobs int) (*shimMoms, error) {
	s := &shimMoms{origin: time.Now(), arrival: make([]atomic.Int64, maxJobs+1)}
	for i := 0; i < n; i++ {
		c, err := proto.DialMode(addr, proto.ModeAuto)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
		if err := c.Send(proto.TRegister, proto.RegisterReq{
			Node: fmt.Sprintf("s%04d", i), Addr: "127.0.0.1:9", Cores: cores,
		}); err != nil {
			s.close()
			return nil, err
		}
		s.wg.Add(1)
		go s.serve(i, c)
	}
	return s, nil
}

func (s *shimMoms) serve(idx int, c *proto.Conn) {
	defer s.wg.Done()
	var lastDone time.Time
	for {
		env, err := c.Recv()
		if err != nil {
			return // closed
		}
		if env.Type != proto.TRunJob {
			continue
		}
		var req proto.RunJobReq
		if env.Decode(&req) != nil {
			continue
		}
		now := time.Now()
		if req.JobID < len(s.arrival) {
			s.arrival[req.JobID].Store(int64(now.Sub(s.origin)))
		}
		s.arrived.Add(1)
		if !lastDone.IsZero() {
			s.mu.Lock()
			s.turnaround = append(s.turnaround, float64(now.Sub(lastDone))/1e3)
			s.mu.Unlock()
		}
		if int64(req.JobID) == s.heldJob.Load() {
			s.heldConn.Store(int64(idx))
			continue
		}
		if c.Send(proto.TJobDone, proto.JobDoneReq{JobID: req.JobID}) != nil {
			return
		}
		lastDone = time.Now()
	}
}

// release completes the held (gate) job.
func (s *shimMoms) release() error {
	id := int(s.heldJob.Swap(0))
	return s.conns[s.heldConn.Load()].Send(proto.TJobDone, proto.JobDoneReq{JobID: id})
}

func (s *shimMoms) at(id int) (time.Time, bool) {
	ns := s.arrival[id].Load()
	return s.origin.Add(time.Duration(ns)), ns != 0
}

func (s *shimMoms) close() {
	for _, c := range s.conns {
		_ = c.Close() // tearing the shim down; its read loops exit on the error
	}
	s.wg.Wait()
}

func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// shimMomRun times the server with the moms taken out: the wire qsub
// as the client sees it and the server path from that qsub sent to the
// job's RunJob reaching its mom (open loop, empty queue); then, behind
// a gate at the workload's depth, the in-process QSub call, qstat and
// the scheduler snapshot; and finally a drain in which every
// completion is answered at once — the server's turnaround from a
// JobDone to the next RunJob, and how long its lock makes a bystander
// wait meanwhile.
func shimMomRun(sh shape, seed int64, m layerMetrics) error {
	cfg, err := sh.config()
	if err != nil {
		return err
	}
	srv := serverd.New(serverd.Options{Sched: core.New(core.Options{Config: cfg}, 0)})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Close()
	nMoms := min(sh.moms, shimMomsCap)
	depth := min(sh.depth, shimDepthCap)
	nOpen := max(20, int(shimOpenRate*shimOpenWindow.Seconds()*float64(depth)/float64(shimDepthCap)))
	shim, err := newShimMoms(srv.Addr(), nMoms, sh.cores, nOpen+depth+1)
	if err != nil {
		return err
	}
	defer shim.close()
	if err := waitFor("shim moms to register", 30*time.Second, func() bool { return len(srv.QStat().Nodes) == nMoms }); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))

	// Phase 1: open loop on an empty queue.
	samples := openLoop(srv.Addr(), genSpecs(rng, nOpen, sh.users, 1, sh.cores, "go:shim"), time.Now().Add(5*time.Millisecond), shimOpenRate, nil)
	if err := waitFor("shim open-loop jobs", 30*time.Second, func() bool { return shim.arrived.Load() >= int64(nOpen) }); err != nil {
		return err
	}
	var rtt, path []float64
	for _, s := range samples {
		at, ok := shim.at(s.id)
		if s.id == 0 || !ok {
			return fmt.Errorf("shim-mom run: a job was lost")
		}
		rtt = append(rtt, float64(s.reply.Sub(s.sent))/1e3)
		path = append(path, float64(at.Sub(s.sent))/1e3)
	}
	m.set("proto.qsub_rtt_us", median(rtt), "us")
	m.set("serverd.server_path_us", median(path), "us")

	// Phase 2: the gate job takes every core and is held by its shim.
	gateID := nOpen + 1
	shim.heldJob.Store(int64(gateID))
	if _, err := srv.QSub(proto.JobSpec{Name: "gate", User: "gate", Nodes: nMoms, PPN: sh.cores, WallSecs: 3600, Script: "go:shim"}); err != nil {
		return err
	}
	if err := waitFor("the gate job", 30*time.Second, func() bool { _, ok := shim.at(gateID); return ok }); err != nil {
		return err
	}
	calls := make([]float64, 0, depth)
	for _, spec := range genSpecs(rng, depth, sh.users, 1, sh.cores, "go:shim") {
		t0 := time.Now()
		if _, err := srv.QSub(spec); err != nil {
			return err
		}
		calls = append(calls, float64(time.Since(t0))/1e3)
	}
	m.set("serverd.qsub_call_us", median(calls), "us")

	var probeErr error
	m.set("serverd.qstat_call_ms", timeN(5, func() { srv.QStat() })/1e6, "ms")
	m.set("proto.qstat_rtt_ms", timeN(5, func() {
		if _, err := wireQStat(srv.Addr()); err != nil {
			probeErr = err
		}
	})/1e6, "ms")
	m.set("serverd.snapshot_ms", timeN(5, func() {
		c, err := proto.DialMode(srv.Addr(), proto.ModeAuto)
		if err == nil {
			var env *proto.Envelope
			if env, err = c.Request(proto.TSchedPull, nil); err == nil {
				err = env.Decode(new(proto.SchedState))
			}
			_ = c.Close() // read-only exchange, already complete
		}
		if err != nil {
			probeErr = err
		}
	})/1e6, "ms")
	if probeErr != nil {
		return probeErr
	}

	shim.mu.Lock()
	shim.turnaround = shim.turnaround[:0]
	shim.mu.Unlock()
	lock := startLockProbe(srv)
	if err := shim.release(); err != nil {
		return err
	}
	total := int64(nOpen + 1 + depth)
	err = waitFor("the shim drain", 120*time.Second, func() bool { return shim.arrived.Load() >= total })
	waits := lock.finish()
	if err != nil {
		return err
	}
	shim.mu.Lock()
	m.set("serverd.turnaround_us", median(shim.turnaround), "us")
	shim.mu.Unlock()
	m.set("serverd.lock_wait_p50_us", percentile(waits, 0.50), "us")
	m.set("serverd.lock_wait_p99_us", percentile(waits, 0.99), "us")
	return nil
}

// mauidRun times one pull → plan → commit cycle of the external
// scheduler against a server holding the workload's queue, with shim
// moms completing whatever a commit starts.
func mauidRun(sh shape, seed int64, m layerMetrics) error {
	cfg, err := sh.config()
	if err != nil {
		return err
	}
	srv := serverd.New(serverd.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Close()
	nMoms := min(sh.moms, shimMomsCap)
	depth := min(sh.depth, shimMauidCap)
	shim, err := newShimMoms(srv.Addr(), nMoms, sh.cores, depth)
	if err != nil {
		return err
	}
	defer shim.close()
	if err := waitFor("shim moms to register", 30*time.Second, func() bool { return len(srv.QStat().Nodes) == nMoms }); err != nil {
		return err
	}
	for _, spec := range genSpecs(rand.New(rand.NewSource(seed)), depth, sh.users, 1, sh.cores, "go:shim") {
		if _, err := srv.QSub(spec); err != nil {
			return err
		}
	}
	d := mauid.New(srv.Addr(), core.New(core.Options{Config: cfg}, 0), time.Hour) // never started: the probe calls RunOnce itself
	var runErr error
	m.set("mauid.runonce_ms", timeN(5, func() {
		if _, _, err := d.RunOnce(); err != nil {
			runErr = err
		}
	})/1e6, "ms")
	return runErr
}

// shimServer plays the server for real moms: it accepts their
// registrations, and answers a forwarded tm_dynget at once, granting
// the hosts in grant (or rejecting when grant is empty).
type shimServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns map[string]*proto.Conn // guarded by mu: by node name
	grant []proto.HostSlice      // guarded by mu
	done  chan int               // job ids whose JobDone arrived; buffered for one in-flight probe job
}

func newShimServer() (*shimServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &shimServer{ln: ln, conns: map[string]*proto.Conn{}, done: make(chan int, 1)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go s.serve(proto.NewConn(nc))
		}
	}()
	return s, nil
}

func (s *shimServer) serve(c *proto.Conn) {
	defer s.wg.Done()
	defer c.Close()
	if c.AcceptHandshake(proto.ModeAuto) != nil {
		return
	}
	for {
		env, err := c.Recv()
		if err != nil {
			return
		}
		// An if-chain, not a switch: the shim answers the three messages
		// the probes need and is not the server's dispatch role.
		if env.Type == proto.TRegister {
			var req proto.RegisterReq
			if env.Decode(&req) == nil {
				s.mu.Lock()
				s.conns[req.Node] = c
				s.mu.Unlock()
			}
		} else if env.Type == proto.TJobDone {
			var req proto.JobDoneReq
			if env.Decode(&req) == nil {
				s.done <- req.JobID
			}
		} else if env.Type == proto.TDynGet {
			var req proto.DynGetReq
			if env.Decode(&req) != nil {
				continue
			}
			s.mu.Lock()
			grant := s.grant
			s.mu.Unlock()
			resp := proto.DynGetResp{JobID: req.JobID, Granted: len(grant) > 0, Hosts: grant}
			if !resp.Granted {
				resp.Reason = "shim: rejected"
			}
			if c.Send(proto.TDynGetResp, resp) != nil {
				return
			}
		}
	}
}

func (s *shimServer) conn(node string) *proto.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns[node]
}

func (s *shimServer) setGrant(hosts []proto.HostSlice) {
	s.mu.Lock()
	s.grant = hosts
	s.mu.Unlock()
}

func (s *shimServer) close() {
	_ = s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		_ = c.Close() // shutting the shim down
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// shimServerRun times the mom and tm with the server taken out: from a
// RunJob sent to the application entered (alone, and with sibling
// hosts to join first), from the application's return to the JobDone
// arriving, and the application's tm_dynget / tm_dynfree round trips
// with and without a remote dyn_join.
func shimServerRun(sh shape, m layerMetrics) error {
	srv, err := newShimServer()
	if err != nil {
		return err
	}
	defer srv.close()
	siblings := min(max(sh.hosts-1, 1), shimSiblings)
	moms := make([]*mom.Mom, 1+siblings)
	hosts := make([]proto.HostSlice, len(moms))
	for i := range moms {
		moms[i] = mom.New(fmt.Sprintf("r%02d", i), sh.cores)
		if err := moms[i].Start("127.0.0.1:0", srv.ln.Addr().String()); err != nil {
			return err
		}
		defer moms[i].Close()
		hosts[i] = proto.HostSlice{Node: moms[i].Name(), Addr: moms[i].Addr(), Cores: sh.cores}
	}
	if err := waitFor("real moms to register", 30*time.Second, func() bool { return srv.conn(moms[len(moms)-1].Name()) != nil && srv.conn(moms[0].Name()) != nil }); err != nil {
		return err
	}
	ms0 := srv.conn(moms[0].Name())

	// launch / join / done: a no-op app that reports its entry.
	type entry struct{ in, out time.Time }
	entered := make(chan entry, 1) // one probe job in flight at a time
	var apps appSet
	defer apps.release()
	noop := apps.register(func(context.Context, *tm.Context) error {
		now := time.Now()
		entered <- entry{now, time.Now()}
		return nil
	})
	run := func(n int, hosts []proto.HostSlice) (launch, done []float64, err error) {
		for id := 1; id <= n; id++ {
			t0 := time.Now()
			if err := ms0.Send(proto.TRunJob, proto.RunJobReq{JobID: id, Spec: proto.JobSpec{Name: "p", User: "u000", Script: noop}, Hosts: hosts}); err != nil {
				return nil, nil, err
			}
			e := <-entered
			<-srv.done
			t3 := time.Now()
			launch = append(launch, float64(e.in.Sub(t0))/1e3)
			done = append(done, float64(t3.Sub(e.out))/1e3)
		}
		return launch, done, nil
	}
	launch, done, err := run(300, hosts[:1])
	if err != nil {
		return err
	}
	m.set("mom.launch_us", median(launch), "us")
	m.set("mom.done_us", median(done), "us")
	join, _, err := run(200, hosts)
	if err != nil {
		return err
	}
	m.set("mom.join_us", median(join), "us")

	// tm: one long-lived evolving app that runs the calls it is sent.
	type tmOp struct {
		free bool // tm_dynfree of the last grant instead of tm_dynget
	}
	ops := make(chan tmOp)
	took := make(chan float64, 1) // one result per op
	appErr := make(chan error, 1) // the app's exit report
	evolve := apps.register(func(_ context.Context, tmc *tm.Context) error {
		var held []proto.HostSlice
		for op := range ops {
			t0 := time.Now()
			if op.free {
				if err := tmc.DynFree(held); err != nil {
					appErr <- err
					return err
				}
			} else {
				h, err := tmc.DynGetNodes(1, sh.cores)
				if err != nil && !tm.IsRejected(err) {
					appErr <- err
					return err
				}
				held = h
			}
			took <- float64(time.Since(t0)) / 1e3
		}
		appErr <- nil
		return nil
	})
	if err := ms0.Send(proto.TRunJob, proto.RunJobReq{JobID: 1000, Spec: proto.JobSpec{Name: "e", User: "u000", Script: evolve, Evolving: true}, Hosts: hosts[:1]}); err != nil {
		return err
	}
	call := func(op tmOp) (float64, error) {
		select {
		case ops <- op:
		case err := <-appErr:
			return 0, fmt.Errorf("shim-server run: tm app stopped: %v", err)
		}
		select {
		case v := <-took:
			return v, nil
		case err := <-appErr:
			return 0, fmt.Errorf("shim-server run: tm call failed: %v", err)
		}
	}
	var reject, grant, free []float64
	for i := 0; i < 200; i++ {
		v, err := call(tmOp{})
		if err != nil {
			return err
		}
		reject = append(reject, v)
	}
	srv.setGrant(hosts[1:2])
	for i := 0; i < 200; i++ {
		v, err := call(tmOp{})
		if err != nil {
			return err
		}
		grant = append(grant, v)
		if v, err = call(tmOp{free: true}); err != nil {
			return err
		}
		free = append(free, v)
	}
	close(ops)
	if err := <-appErr; err != nil {
		return err
	}
	<-srv.done
	m.set("tm.dynget_rtt_us", median(reject), "us")
	m.set("tm.dynjoin_rtt_us", median(grant), "us")
	m.set("tm.dynfree_us", median(free), "us")
	return nil
}
