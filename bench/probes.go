package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/fairtree"
	"repro/internal/job"
	"repro/internal/profile"
	"repro/internal/proto"
	"repro/internal/sim"
)

// The probes time one layer's public entry point in isolation, on
// state the driver builds to the workload's shape. They never touch
// the workload's own server: a probe answers "what does this call cost
// at this size", the traced workload answers "how often is it made".

// layerMetrics collects the per-layer metrics of one traced run.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// probeCluster times placement and release on a half-full cluster.
func probeCluster(sh shape, m layerMetrics) {
	cl := cluster.New(sh.moms, sh.cores)
	id := job.ID(1)
	for cl.IdleCores() > cl.TotalCores()/2 {
		cl.Allocate(id, 1+int(id)%sh.cores)
		id++
	}
	const n = 2000
	alloc, release := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		id++
		t0 := time.Now()
		cl.Allocate(id, 1+i%sh.cores)
		t1 := time.Now()
		cl.Release(id)
		t2 := time.Now()
		alloc[i], release[i] = float64(t1.Sub(t0)), float64(t2.Sub(t1))
	}
	m.set("cluster.allocate_ns", median(alloc), "ns")
	m.set("cluster.release_ns", median(release), "ns")
}

// probeProfile times the availability-profile operations the planner
// makes per queued job, on a profile with one release boundary per
// running job of a full machine.
func probeProfile(sh shape, rng *rand.Rand, m layerMetrics) {
	now := sim.Time(0)
	b := profile.NewBuilder(now, 0)
	for c := 0; c < sh.moms*sh.cores; {
		cores := 1 + rng.Intn(sh.cores)
		b.Release(now+sim.Duration(1+rng.Intn(4*3600))*sim.Second, cores)
		c += cores
	}
	base := b.BuildSegInto(&profile.SegProfile{})
	var scratch profile.SegProfile
	var sink sim.Time
	m.set("profile.findslot_ns", timeBatches(200, 64, func() {
		sink += base.FindSlot(1+rng.Intn(sh.cores), wallOf(rng), now)
	}), "ns")
	m.set("profile.clone_ns", timeBatches(200, 16, func() { base.CloneInto(&scratch) }), "ns")
	// AddHold mutates, so each batch starts from a fresh clone (not
	// timed) and places its holds where the planner would: at the slot
	// FindSlot just returned.
	const per = 32
	type hold struct {
		start, end sim.Time
		cores      int
	}
	holds := make([]hold, per)
	samples := make([]float64, 200)
	for i := range samples {
		p := base.CloneInto(&scratch)
		for k := range holds {
			cores, wall := 1+rng.Intn(sh.cores), wallOf(rng)
			start := p.FindSlot(cores, wall, now)
			holds[k] = hold{start, start + wall, cores}
		}
		t0 := time.Now()
		for _, h := range holds {
			p.AddHold(h.start, h.end, h.cores)
		}
		samples[i] = float64(time.Since(t0)) / per
	}
	m.set("profile.addhold_ns", median(samples), "ns")
	_ = sink
}

func wallOf(rng *rand.Rand) sim.Duration {
	return sim.Duration(wallSecs[rng.Intn(len(wallSecs))]) * sim.Second
}

// probeFairness times the dynamic-fairness gate and the share tree on
// the workload's scheduler configuration and user count: Evaluate and
// Charge for a grant that delays five jobs of five users, the
// fairshare factor the priority fill reads per job, a sharded usage
// record, and the fold of one record per user.
func probeFairness(sh shape, m layerMetrics) error {
	cfg, err := sh.config()
	if err != nil {
		return err
	}
	sched := core.New(core.Options{Config: cfg}, 0)
	tree := sched.Fairshare().Tree()
	users := make([]string, sh.users)
	for u := range users {
		users[u] = fmt.Sprintf("u%03d", u)
		tree.RecordNow(tree.UserID(users[u]), float64(1+u))
	}
	delays := make([]fairness.JobDelay, 5)
	for i := range delays {
		delays[i] = fairness.JobDelay{
			Job:   &job.Job{ID: job.ID(i + 1), Cred: job.Credentials{User: users[(4+i)%len(users)]}},
			Delay: sim.Minute,
		}
	}
	requester := job.Credentials{User: users[len(users)-1]}
	tr := sched.FairnessTracker()
	allowed := 0
	m.set("fairness.evaluate_ns", timeBatches(200, 64, func() {
		if tr.Evaluate(requester, delays).Allowed {
			allowed++
		}
	}), "ns")
	m.set("fairness.charge_ns", timeBatches(200, 64, func() { tr.Charge(requester, delays) }), "ns")

	ids := make([]fairtree.NodeID, len(users))
	for u, name := range users {
		ids[u] = tree.UserID(name)
	}
	i, sum := 0, 0.0
	m.set("fairtree.factor_ns", timeBatches(200, 64, func() {
		sum += tree.Factor(ids[i%len(ids)])
		i++
	}), "ns")
	m.set("fairtree.record_ns", timeBatches(200, 64, func() {
		tree.Record(ids[i%len(ids)], 1)
		i++
	}), "ns")
	// The fold the scheduler pays at its next Advance: one pending
	// sharded record per user.
	adv := make([]float64, 100)
	now := sim.Time(0)
	for k := range adv {
		for _, id := range ids {
			tree.Record(id, 1)
		}
		now += sim.Minute
		t0 := time.Now()
		tree.Advance(now)
		adv[k] = float64(time.Since(t0))
	}
	m.set("fairtree.advance_us", median(adv)/1e3, "us")
	_, _ = allowed, sum
	return nil
}

// probeRM is a driver-owned core.ResourceManager with change tracking:
// a full cluster of running jobs, a queue of the workload's depth, and
// the least the scheduler needs to start, grant and reject.
type probeRM struct {
	cl     *cluster.Cluster
	queued []*job.Job
	active []*job.Job
	dyn    []*job.DynRequest
	epoch  uint64
	qepoch uint64
	now    sim.Time
	// lastGrant is the allocation of the latest GrantDyn, kept so the
	// probe can hand it back and ask again.
	lastGrant cluster.Alloc
}

func (r *probeRM) Cluster() *cluster.Cluster      { return r.cl }
func (r *probeRM) QueuedJobs() []*job.Job         { return append([]*job.Job(nil), r.queued...) }
func (r *probeRM) ActiveJobs() []*job.Job         { return append([]*job.Job(nil), r.active...) }
func (r *probeRM) DynRequests() []*job.DynRequest { return append([]*job.DynRequest(nil), r.dyn...) }
func (r *probeRM) StateEpoch() uint64             { return r.epoch }
func (r *probeRM) QueueEpoch() uint64             { return r.qepoch }

func (r *probeRM) StartJob(j *job.Job) (cluster.Alloc, error) {
	alloc := r.cl.Allocate(j.ID, j.Cores)
	if alloc == nil {
		return nil, fmt.Errorf("probe: cannot place %s", j.ID)
	}
	for i, q := range r.queued {
		if q == j {
			r.queued = append(r.queued[:i], r.queued[i+1:]...)
			break
		}
	}
	j.State, j.StartTime = job.Running, r.now
	r.active = append(r.active, j)
	r.epoch++
	r.qepoch++
	return alloc, nil
}

func (r *probeRM) GrantDyn(req *job.DynRequest) (cluster.Alloc, error) {
	alloc := r.cl.Allocate(req.Job.ID, req.TotalCores())
	if alloc == nil {
		return nil, fmt.Errorf("probe: cannot place grant for %s", req.Job.ID)
	}
	req.Job.DynCores += req.TotalCores()
	r.lastGrant = alloc
	r.resolve(req)
	return alloc, nil
}

func (r *probeRM) RejectDyn(req *job.DynRequest, _ string) { r.resolve(req) }

func (r *probeRM) resolve(req *job.DynRequest) {
	req.Job.State = job.Running
	r.dyn = r.dyn[:0]
	r.epoch++
}

func (r *probeRM) Preempt(*job.Job) error { return fmt.Errorf("probe: no preemption") }

// complete ends the oldest running job, as a mom's jobdone does.
func (r *probeRM) complete() {
	j := r.active[0]
	r.active = r.active[1:]
	r.cl.Release(j.ID)
	j.State = job.Completed
	r.epoch++
}

// newProbeRM fills the cluster with running rigid jobs — keeping
// idle cores idle — and queues depth jobs of minCores..maxCores.
func newProbeRM(sh shape, rng *rand.Rand, idle, minCores, maxCores int) *probeRM {
	r := &probeRM{cl: cluster.New(sh.moms, sh.cores), now: sim.Second}
	id := job.ID(1)
	for r.cl.IdleCores() > idle {
		cores := min(1+rng.Intn(sh.cores), r.cl.IdleCores()-idle)
		j := &job.Job{ID: id, Cred: job.Credentials{User: fmt.Sprintf("u%03d", rng.Intn(sh.users))},
			Cores: cores, Walltime: wallOf(rng), State: job.Running}
		r.cl.Allocate(id, cores)
		r.active = append(r.active, j)
		id++
	}
	for i := 0; i < sh.depth; i++ {
		r.queued = append(r.queued, &job.Job{
			ID: id, Cred: job.Credentials{User: fmt.Sprintf("u%03d", rng.Intn(sh.users))},
			Cores: minCores + rng.Intn(maxCores-minCores+1), Walltime: wallOf(rng),
			SubmitTime: sim.Time(i), State: job.Queued,
		})
		id++
	}
	r.epoch, r.qepoch = 1, 1
	return r
}

// probeCore times Scheduler.Iterate in the four states a live server
// puts it in: after the queue changed (table refill and sort, full
// plan), after one completion in a steady drain, with nothing changed
// (the event-driven skip), and with one dynamic request pending
// (what-if planning and the fairness gate).
func probeCore(sh shape, rng *rand.Rand, m layerMetrics) error {
	cfg, err := sh.config()
	if err != nil {
		return err
	}
	sched := core.New(core.Options{Config: cfg}, 0)
	rm := newProbeRM(sh, rng, 0, 1, sh.cores)
	iterate := func() { sched.Recycle(sched.Iterate(rm.now, rm)) }
	m.set("core.iterate_cold_ms", timeN(7, func() {
		rm.epoch++
		rm.qepoch++
		iterate()
	})/1e6, "ms")
	warm := make([]float64, 0, 40)
	for i := 0; i < 40 && len(rm.active) > 0; i++ {
		rm.complete()
		rm.now += sim.Second
		t0 := time.Now()
		iterate()
		warm = append(warm, float64(time.Since(t0)))
	}
	m.set("core.iterate_warm_us", median(warm)/1e3, "us")
	iterate() // settle: the next ticks see a frozen epoch
	m.set("core.iterate_idle_ns", timeBatches(200, 64, iterate), "ns")

	// One pending request for a node's worth of cores, which are idle;
	// every queued job is too wide to take them, so each iteration
	// walks the full what-if and fairness path and ends in a verdict.
	sched = core.New(core.Options{Config: cfg}, 0)
	rm = newProbeRM(sh, rng, sh.cores, sh.cores+1, 2*sh.cores)
	evolving := rm.active[0]
	evolving.Class, evolving.Walltime = job.Evolving, 8*sim.Hour
	sched.Recycle(sched.Iterate(rm.now, rm))
	decisions := make([]float64, 40)
	for i := range decisions {
		if evolving.DynCores > 0 {
			// The last request was granted: hand the cores back first.
			if err := rm.cl.ReleasePartial(evolving.ID, rm.lastGrant); err != nil {
				return fmt.Errorf("probe: hand back a grant: %w", err)
			}
			evolving.DynCores = 0
		}
		evolving.State = job.DynQueued
		rm.dyn = append(rm.dyn[:0], &job.DynRequest{Job: evolving, Cores: sh.cores, IssuedAt: rm.now})
		rm.epoch++
		t0 := time.Now()
		sched.Recycle(sched.Iterate(rm.now, rm))
		decisions[i] = float64(time.Since(t0))
	}
	m.set("core.dyn_decision_us", median(decisions)/1e3, "us")
	return nil
}

// probeSim times the event engine's schedule-and-fire churn with a
// heap as deep as the workload's queue.
func probeSim(sh shape, rng *rand.Rand, m layerMetrics) {
	eng := sim.NewEngine()
	fired := 0
	fn := func(sim.Time) { fired++ }
	for i := 0; i < sh.depth; i++ {
		eng.ScheduleAfter(sim.Duration(1+rng.Intn(1_000_000)), "probe", fn)
	}
	m.set("sim.schedule_fire_ns", timeBatches(200, 64, func() {
		eng.ScheduleAfter(sim.Duration(1+rng.Intn(1_000_000)), "probe", fn)
		eng.Step()
	}), "ns")
}

// countingConn counts the bytes a connection carries, exactly.
type countingConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// probeProto times one loopback round trip of each hot message at the
// workload's size over a negotiated v2 connection: the driver's echo
// peer decodes every request into its struct and encodes the reply, as
// the daemons do.
func probeProto(sh shape, m layerMetrics) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	hosts := make([]proto.HostSlice, max(1, sh.hosts))
	for i := range hosts {
		hosts[i] = proto.HostSlice{Node: fmt.Sprintf("n%04d", i), Addr: fmt.Sprintf("127.0.0.1:%d", 40000+i), Cores: sh.cores}
	}
	state := proto.SchedState{NowMS: 1, Serial: 1}
	for i := 0; i < sh.moms; i++ {
		state.Nodes = append(state.Nodes, proto.NodeStatus{Name: hosts[i%len(hosts)].Node, Cores: sh.cores, Used: sh.cores, State: "up"})
	}
	for i := 0; i < sh.depth; i++ {
		state.Queued = append(state.Queued, proto.SchedJob{ID: i + 1, Name: "j", User: fmt.Sprintf("u%03d", i%sh.users),
			State: "queued", Cores: 1 + i%sh.cores, WallSecs: 3600, SubmitMS: int64(i)})
	}

	served := make(chan error, 1) // the echo goroutine's single exit report
	go func() { served <- serveEcho(ln, &state) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	cc := &countingConn{Conn: nc}
	c := proto.NewConn(cc)
	if err := c.ClientHandshake(proto.ModeV2); err != nil {
		_ = c.Close()
		return err
	}
	var rttErr error
	rtt := func(n int, t proto.MsgType, payload any, dst func() any) float64 {
		return timeN(n, func() {
			env, err := c.Request(t, payload)
			if err == nil {
				err = env.Decode(dst())
			}
			if err != nil && rttErr == nil {
				rttErr = err
			}
		})
	}
	spec := proto.JobSpec{Name: "j", User: "u000", Cores: sh.cores, WallSecs: 3600, Script: "go:noop"}
	w0 := cc.written.Load()
	m.set("proto.rtt_runjob_us", rtt(300, proto.TRunJob, proto.RunJobReq{JobID: 1, Spec: spec, Hosts: hosts},
		func() any { return new(proto.RunJobReq) })/1e3, "us")
	m.set("proto.bytes_runjob", float64(cc.written.Load()-w0)/300, "B")
	m.set("proto.rtt_jobdone_us", rtt(300, proto.TJobDone, proto.JobDoneReq{JobID: 1},
		func() any { return new(proto.JobDoneReq) })/1e3, "us")
	m.set("proto.rtt_dynget_us", rtt(300, proto.TDynGet, proto.DynGetReq{JobID: 1, Nodes: 1, PPN: sh.cores},
		func() any { return new(proto.DynGetResp) })/1e3, "us")
	r0 := cc.read.Load()
	m.set("proto.rtt_schedstate_ms", rtt(5, proto.TSchedPull, nil,
		func() any { return new(proto.SchedState) })/1e6, "ms")
	m.set("proto.bytes_schedstate", float64(cc.read.Load()-r0)/5, "B")
	if err := c.Close(); err != nil && rttErr == nil {
		rttErr = err
	}
	if err := <-served; err != nil && rttErr == nil {
		rttErr = err
	}
	return rttErr
}

// serveEcho answers one connection until the peer closes it.
func serveEcho(ln net.Listener, state *proto.SchedState) error {
	nc, err := ln.Accept()
	if err != nil {
		return err
	}
	c := proto.NewConn(nc)
	defer c.Close()
	if err := c.AcceptHandshake(proto.ModeAuto); err != nil {
		return err
	}
	for {
		env, err := c.Recv()
		if err != nil {
			return nil // the client hung up: done
		}
		// An if-chain, not a switch: this peer echoes four message types
		// for timing and implements none of the daemons' dispatch roles.
		if env.Type == proto.TRunJob {
			var req proto.RunJobReq
			if err = env.Decode(&req); err == nil {
				err = c.Send(proto.TRunJob, req)
			}
		} else if env.Type == proto.TJobDone {
			var req proto.JobDoneReq
			if err = env.Decode(&req); err == nil {
				err = c.Send(proto.TJobDone, req)
			}
		} else if env.Type == proto.TDynGet {
			var req proto.DynGetReq
			if err = env.Decode(&req); err == nil {
				err = c.Send(proto.TDynGetResp, proto.DynGetResp{JobID: req.JobID, Granted: true,
					Hosts: []proto.HostSlice{{Node: "n0001", Addr: "127.0.0.1:40001", Cores: req.PPN}}})
			}
		} else if env.Type == proto.TSchedPull {
			err = c.Send(proto.TSchedState, state)
		} else {
			err = fmt.Errorf("echo: unexpected %s", env.Type)
		}
		if err != nil {
			return err
		}
	}
}
