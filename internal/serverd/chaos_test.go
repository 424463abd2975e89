package serverd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"repro/internal/testutil/leak"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/rms"
	"repro/internal/tm"
)

// failoverCluster is liveCluster with failure detection turned on and
// access to the mom handles, so tests can kill and restart daemons.
func failoverCluster(t *testing.T, n, coresPerNode int, opts Options, tune func(*mom.Mom)) (*Server, []*mom.Mom) {
	t.Helper()
	if opts.Sched == nil {
		opts.Sched = core.New(core.Options{}, 0)
	}
	if opts.PollInterval == 0 {
		opts.PollInterval = 20 * time.Millisecond
	}
	srv := New(opts)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	moms := make([]*mom.Mom, n)
	for i := range moms {
		m := mom.New(fmt.Sprintf("fnode%d", i), coresPerNode)
		if tune != nil {
			tune(m)
		}
		if err := m.Start("127.0.0.1:0", srv.Addr()); err != nil {
			t.Fatal(err)
		}
		moms[i] = m
		t.Cleanup(m.Close)
	}
	waitFor(t, time.Second, func() bool {
		return loopRead(t, srv, func() int { return len(srv.nodes) }) == n
	}, "moms registered")
	return srv, moms
}

func msNodeOf(t *testing.T, srv *Server, id int) string {
	t.Helper()
	ms, known := "", false
	onLoop(t, srv, func() {
		if ji := srv.jobs[id]; ji != nil {
			ms, known = ji.msNode, true
		}
	})
	if !known {
		t.Fatalf("job %d unknown", id)
	}
	return ms
}

func momByName(t *testing.T, moms []*mom.Mom, name string) *mom.Mom {
	t.Helper()
	for _, m := range moms {
		if m.Name() == name {
			return m
		}
	}
	t.Fatalf("no mom named %s", name)
	return nil
}

func nodeState(srv *Server, name string) string {
	for _, n := range srv.QStat().Nodes {
		if n.Name == name {
			return n.State
		}
	}
	return ""
}

// TestChaosMomKilledMidJobCancel: the mother superior dies while its
// job runs. The heartbeat monitor must declare the node down and the
// default failure policy must cancel the job, releasing every core.
func TestChaosMomKilledMidJobCancel(t *testing.T) {
	leak.Check(t)
	srv, moms := failoverCluster(t, 2, 8,
		Options{HeartbeatInterval: 25 * time.Millisecond},
		func(m *mom.Mom) { m.HeartbeatInterval = 10 * time.Millisecond })
	id, err := srv.QSub(proto.JobSpec{
		Name: "victim", User: "u", Cores: 8, WallSecs: 600, Script: "sleep:10m",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "running" }, "job start")
	ms := msNodeOf(t, srv, id)
	momByName(t, moms, ms).Close()

	waitFor(t, 5*time.Second, func() bool { return jobState(srv, id) == "cancelled" }, "failure-policy cancel")
	waitFor(t, 5*time.Second, func() bool { return nodeState(srv, ms) == "down" }, "node declared down")
	for _, n := range srv.QStat().Nodes {
		if n.Used != 0 {
			t.Errorf("node %s leaked %d cores after failure", n.Name, n.Used)
		}
	}
	if wall, neg := deadlinesOf(t, srv, id); wall+neg != 0 {
		t.Errorf("cancelled job still holds %d walltime and %d negotiation deadlines", wall, neg)
	}
}

// TestChaosMomKilledMidJobRequeue: with FailRequeue the job must
// restart from scratch on the surviving node and complete.
func TestChaosMomKilledMidJobRequeue(t *testing.T) {
	leak.Check(t)
	srv, moms := failoverCluster(t, 2, 8,
		Options{HeartbeatInterval: 25 * time.Millisecond, FailurePolicy: rms.FailRequeue},
		func(m *mom.Mom) { m.HeartbeatInterval = 10 * time.Millisecond })
	id, err := srv.QSub(proto.JobSpec{
		Name: "phoenix", User: "u", Cores: 8, WallSecs: 600, Script: "sleep:150ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "running" }, "job start")
	first := msNodeOf(t, srv, id)
	momByName(t, moms, first).Close()

	waitFor(t, 10*time.Second, func() bool { return jobState(srv, id) == "completed" }, "requeued job completion")
	if st := nodeState(srv, first); st != "down" {
		t.Errorf("failed node state = %s, want down", st)
	}
	second := msNodeOf(t, srv, id)
	if second == first {
		t.Errorf("job restarted on the dead node %s", first)
	}
	for _, n := range srv.QStat().Nodes {
		if n.Used != 0 {
			t.Errorf("node %s leaked %d cores", n.Name, n.Used)
		}
	}
}

// TestChaosMomKilledWithPendingDyn: a mom dies while its job's
// negotiable dynamic request is parked. The request (and its deadline
// timer) must be dropped with the job, and the in-process application
// must be unblocked rather than left waiting forever.
func TestChaosMomKilledWithPendingDyn(t *testing.T) {
	leak.Check(t)
	srv, moms := failoverCluster(t, 2, 8,
		Options{HeartbeatInterval: 25 * time.Millisecond},
		func(m *mom.Mom) { m.HeartbeatInterval = 10 * time.Millisecond })
	verdict := make(chan error, 1)
	t.Cleanup(mom.RegisterGoApp("doomed-negotiator", func(ctx context.Context, tmc *tm.Context) error {
		_, err := tmc.DynGetTimeout(100, 30*time.Second) // impossible: stays pending
		verdict <- err
		return nil
	}))
	id, err := srv.QSub(proto.JobSpec{
		Name: "doomed", User: "u", Cores: 8, WallSecs: 600,
		Script: "go:doomed-negotiator", Evolving: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return loopRead(t, srv, func() int { return len(srv.rm.DynRequests()) }) == 1
	}, "dyn request parked")
	ms := msNodeOf(t, srv, id)
	momByName(t, moms, ms).Close()

	waitFor(t, 5*time.Second, func() bool { return jobState(srv, id) == "cancelled" }, "job cancelled")
	pending := loopRead(t, srv, func() int { return len(srv.rm.DynRequests()) })
	if pending != 0 {
		t.Errorf("%d dyn requests survived the node failure", pending)
	}
	if _, neg := deadlinesOf(t, srv, id); neg != 0 {
		t.Error("negotiation deadline leaked past node failure")
	}
	select {
	case err := <-verdict:
		if err == nil {
			t.Error("application got a grant from a dead system")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("application still blocked after its mom died")
	}
}

// TestChaosReRegistrationRepairsNode: a node declared down comes back
// (a fresh mom with the same name) and must be schedulable again.
func TestChaosReRegistrationRepairsNode(t *testing.T) {
	leak.Check(t)
	srv, moms := failoverCluster(t, 1, 8,
		Options{HeartbeatInterval: 20 * time.Millisecond},
		func(m *mom.Mom) { m.HeartbeatInterval = 10 * time.Millisecond })
	id, err := srv.QSub(proto.JobSpec{
		Name: "casualty", User: "u", Cores: 8, WallSecs: 600, Script: "sleep:10m",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "running" }, "job start")
	moms[0].Close()
	waitFor(t, 5*time.Second, func() bool { return nodeState(srv, "fnode0") == "down" }, "node down")
	waitFor(t, 5*time.Second, func() bool { return jobState(srv, id) == "cancelled" }, "job cancelled")

	replacement := mom.New("fnode0", 8)
	replacement.HeartbeatInterval = 10 * time.Millisecond
	if err := replacement.Start("127.0.0.1:0", srv.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replacement.Close)
	waitFor(t, 5*time.Second, func() bool { return nodeState(srv, "fnode0") == "up" }, "node repaired")

	id2, err := srv.QSub(proto.JobSpec{
		Name: "after", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:30ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return jobState(srv, id2) == "completed" }, "job on repaired node")
}

// TestChaosVerdictBufferedAndReplayed: the server grants a dynamic
// request while the mother superior's link is down. The verdict must
// be buffered and replayed after the mom auto-reconnects, resolving
// the application's parked tm_dynget with the real grant.
func TestChaosVerdictBufferedAndReplayed(t *testing.T) {
	leak.Check(t)
	srv, _ := failoverCluster(t, 2, 8, Options{}, func(m *mom.Mom) {
		m.AutoReconnect = true
		m.ReconnectBase = 150 * time.Millisecond
		m.ReconnectMax = 300 * time.Millisecond
	})
	gotHosts := make(chan []proto.HostSlice, 1)
	failed := make(chan error, 1)
	t.Cleanup(mom.RegisterGoApp("patient-grower", func(ctx context.Context, tmc *tm.Context) error {
		hosts, err := tmc.DynGetTimeout(8, 10*time.Second)
		if err != nil {
			failed <- err
			return err
		}
		gotHosts <- hosts
		return nil
	}))
	// Fill half the cluster first so the dynget below cannot be granted
	// until the blocker goes away.
	blocker, err := srv.QSub(proto.JobSpec{
		Name: "blk", User: "x", Cores: 8, WallSecs: 600, Script: "sleep:10m",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, blocker) == "running" }, "blocker running")
	id, err := srv.QSub(proto.JobSpec{
		Name: "grow", User: "u", Cores: 8, WallSecs: 600,
		Script: "go:patient-grower", Evolving: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool {
		st := jobState(srv, id)
		return st == "running" || st == "dynqueued"
	}, "job start")
	ms := msNodeOf(t, srv, id)
	waitFor(t, 5*time.Second, func() bool {
		return loopRead(t, srv, func() int { return len(srv.rm.DynRequests()) }) == 1
	}, "dyn request parked")

	// Cut the mother superior's link server-side (the mom will notice
	// the EOF and start its reconnect loop), then free capacity so the
	// grant is decided while the link is down.
	var ni *nodeInfo
	var link *proto.Conn
	onLoop(t, srv, func() { ni = srv.nodes[ms]; link = ni.conn })
	_ = link.Close()
	waitFor(t, 3*time.Second, func() bool {
		return loopRead(t, srv, func() bool { return ni.conn == nil || ni.conn != link })
	}, "server noticed the dead link")
	srv.QDel(blocker)
	waitFor(t, 3*time.Second, func() bool {
		return loopRead(t, srv, func() int { return len(ni.verdicts) }) == 1
	}, "verdict buffered while link down")

	select {
	case hosts := <-gotHosts:
		total := 0
		for _, h := range hosts {
			total += h.Cores
		}
		if total != 8 {
			t.Errorf("replayed grant = %d cores, want 8", total)
		}
	case err := <-failed:
		t.Fatalf("dynget failed instead of surviving the outage: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("verdict never replayed after reconnect")
	}
	left := loopRead(t, srv, func() int { return len(ni.verdicts) })
	if left != 0 {
		t.Errorf("%d verdicts still buffered after replay", left)
	}
	waitFor(t, 5*time.Second, func() bool { return jobState(srv, id) == "completed" }, "job completion")
}

// TestChaosTMRetryAcrossMomRestart: with Retries set, a TM call made
// while the mom is down keeps re-dialing with backoff and succeeds
// once a mom is listening again; with the zero default it fails fast.
func TestChaosTMRetryAcrossMomRestart(t *testing.T) {
	leak.Check(t)
	srv, _ := failoverCluster(t, 1, 8, Options{}, nil)
	// Reserve a loopback port, then free it: this is where the
	// "restarted" mom will come up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	// Fail-fast default: nothing listens there.
	quick := &tm.Context{JobID: 1, MomAddr: addr}
	if err := quick.Done(nil); err == nil {
		t.Fatal("Done against a dead mom with Retries=0 must fail")
	}

	patient := &tm.Context{JobID: 1, MomAddr: addr, Retries: 40, RetryBase: 25 * time.Millisecond}
	result := make(chan error, 1)
	go func() { result <- patient.Done(nil) }()

	late := mom.New("fnode-late", 4)
	if err := late.Start(addr, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(late.Close)

	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("retrying TM call failed across the restart: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retrying TM call never completed")
	}
}

// TestDynNegotiationTimerReleased is the regression test for the
// leaked negotiation deadline: once a negotiable request is granted,
// its deadline must leave the heap so no late
// rejection can fire at the original deadline.
func TestDynNegotiationTimerReleased(t *testing.T) {
	leak.Check(t)
	srv, _ := failoverCluster(t, 2, 8, Options{}, nil)
	granted := make(chan error, 1)
	t.Cleanup(mom.RegisterGoApp("timer-check", func(ctx context.Context, tmc *tm.Context) error {
		_, err := tmc.DynGetTimeout(8, 1*time.Second)
		granted <- err
		// Stay alive past the original deadline so a leaked timer
		// firing would hit a running job.
		select {
		case <-time.After(1500 * time.Millisecond):
		case <-ctx.Done():
		}
		return nil
	}))
	blocker, err := srv.QSub(proto.JobSpec{
		Name: "blk", User: "x", Cores: 8, WallSecs: 60, Script: "sleep:200ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, blocker) == "running" }, "blocker running")
	id, err := srv.QSub(proto.JobSpec{
		Name: "neg", User: "u", Cores: 8, WallSecs: 60,
		Script: "go:timer-check", Evolving: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-granted:
		if err != nil {
			t.Fatalf("negotiable request not granted: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("grant timed out")
	}
	if _, neg := deadlinesOf(t, srv, id); neg != 0 {
		t.Fatal("negotiation deadline still armed after the request was granted")
	}
	// Ride past the original 1s deadline: the job must complete
	// normally, not get clipped by a late rejection.
	waitFor(t, 10*time.Second, func() bool { return jobState(srv, id) == "completed" }, "job completion past deadline")
}

// TestChaosHeartbeatKeepsIdleNodeAlive: an idle mom (no jobs, no
// traffic) must stay up as long as it heartbeats, and a silent one
// (beacons disabled) must be declared down — the detector keys on
// liveness, not activity.
func TestChaosHeartbeatKeepsIdleNodeAlive(t *testing.T) {
	leak.Check(t)
	srv, _ := failoverCluster(t, 2, 8,
		Options{HeartbeatInterval: 25 * time.Millisecond},
		func(m *mom.Mom) {
			if m.Name() == "fnode0" {
				m.HeartbeatInterval = 10 * time.Millisecond
			} // fnode1 sends no beacons
		})
	waitFor(t, 5*time.Second, func() bool { return nodeState(srv, "fnode1") == "down" }, "silent node declared down")
	// The beaconing node must still be up well past several windows.
	time.Sleep(200 * time.Millisecond)
	if st := nodeState(srv, "fnode0"); st != "up" {
		t.Errorf("heartbeating idle node state = %s, want up", st)
	}
}

// TestEarlierRunWalltimeSparesRequeuedRun: a job requeued off a failed
// node takes its first run's walltime deadline out of the heap. Its
// restart on the other node must still be running when that deadline
// would have fired, and end at its own.
func TestEarlierRunWalltimeSparesRequeuedRun(t *testing.T) {
	leak.Check(t)
	srv, moms := failoverCluster(t, 2, 8,
		Options{HeartbeatInterval: 25 * time.Millisecond, FailurePolicy: rms.FailRequeue},
		func(m *mom.Mom) { m.HeartbeatInterval = 10 * time.Millisecond })
	id, err := srv.QSub(proto.JobSpec{Name: "twice", User: "u", Cores: 8, WallSecs: 1, Script: "sleep:10m"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "running" }, "job start")
	started := time.Now()
	first := msNodeOf(t, srv, id)
	time.Sleep(500*time.Millisecond - time.Since(started))
	momByName(t, moms, first).Close()
	waitFor(t, 3*time.Second, func() bool {
		ms := msNodeOf(t, srv, id)
		return jobState(srv, id) == "running" && ms != "" && ms != first
	}, "restart on the other node")
	if since := time.Since(started); since > 900*time.Millisecond {
		t.Fatalf("the restart came %v after the first start, too late to tell the two walltimes apart", since)
	}
	time.Sleep(1200*time.Millisecond - time.Since(started))
	if st := jobState(srv, id); st != "running" {
		t.Fatalf("restarted job is %s 1.2 s after its first start; the first run's walltime ended the second", st)
	}
	if wall, neg := deadlinesOf(t, srv, id); wall != 1 || neg != 0 {
		t.Errorf("restarted job holds %d walltime and %d negotiation deadlines, want 1 and 0", wall, neg)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "cancelled" }, "the restart's own walltime")
}

// TestNegotiationDeadlineFires: with no scheduler to decide, a
// negotiable request still pending at its deadline is rejected by the
// server's deadline heap, and its entry leaves the heap.
func TestNegotiationDeadlineFires(t *testing.T) {
	leak.Check(t)
	srv := New(Options{}) // external-scheduler mode, and no scheduler connects
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	m := mom.New("solo", 8)
	if err := m.Start("127.0.0.1:0", srv.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	waitFor(t, time.Second, func() bool {
		return loopRead(t, srv, func() int { return len(srv.nodes) }) == 1
	}, "mom registered")
	type result struct {
		err  error
		took time.Duration
	}
	verdict := make(chan result, 1)
	t.Cleanup(mom.RegisterGoApp("deadline-expiry", func(ctx context.Context, tmc *tm.Context) error {
		t0 := time.Now()
		_, err := tmc.DynGetTimeout(4, time.Second)
		verdict <- result{err, time.Since(t0)}
		<-ctx.Done() // keep running, so the walltime entry stays
		return nil
	}))
	id, err := srv.QSub(proto.JobSpec{Name: "neg", User: "u", Cores: 4, WallSecs: 60, Script: "go:deadline-expiry", Evolving: true})
	if err != nil {
		t.Fatal(err)
	}
	resp := loopRead(t, srv, func() proto.SchedCommitResp {
		return srv.applyCommit(proto.SchedCommit{Actions: []proto.SchedAction{{Kind: "start", JobID: id}}})
	})
	if resp.Applied != 1 {
		t.Fatalf("start commit = %+v, want one applied", resp)
	}
	select {
	case r := <-verdict:
		var rej *tm.Rejected
		if !errors.As(r.err, &rej) || rej.Reason != "negotiation deadline expired" {
			t.Fatalf("verdict = %v, want the deadline's rejection", r.err)
		}
		if r.took < 900*time.Millisecond {
			t.Errorf("rejected after %v, before the 1 s deadline", r.took)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the negotiation deadline never fired")
	}
	if wall, neg := deadlinesOf(t, srv, id); wall != 1 || neg != 0 {
		t.Errorf("after expiry the job holds %d walltime and %d negotiation deadlines, want 1 and 0", wall, neg)
	}
}

// TestChaosCommitRacesMutation: sched commits race qdels and mom
// completions that name the same jobs. Every commit action re-validates
// on the loop, so no job starts twice, no action applies to a job that
// has moved on, and every submitted job is accounted for.
func TestChaosCommitRacesMutation(t *testing.T) {
	leak.Check(t)
	srv := New(Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for i := 0; i < 4; i++ {
		m := mom.New(fmt.Sprintf("rnode%d", i), 2)
		if err := m.Start("127.0.0.1:0", srv.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
	}
	waitFor(t, time.Second, func() bool {
		return loopRead(t, srv, func() int { return len(srv.nodes) }) == 4
	}, "moms registered")
	var mu sync.Mutex
	launches := map[int]int{}
	t.Cleanup(mom.RegisterGoApp("commit-race", func(ctx context.Context, tmc *tm.Context) error {
		mu.Lock()
		launches[tmc.JobID]++
		mu.Unlock()
		select {
		case <-time.After(3 * time.Millisecond):
		case <-ctx.Done():
		}
		return nil
	}))
	const n = 60
	ids := make([]int, n)
	for i := range ids {
		id, err := srv.QSub(proto.JobSpec{Name: "race", User: "u", Cores: 1, WallSecs: 60, Script: "go:commit-race"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	settled := func() bool {
		for _, j := range srv.QStat().Jobs {
			if j.State != "completed" && j.State != "cancelled" {
				return false
			}
		}
		return true
	}

	var applied atomic.Int64
	errs := make(chan error, 3)
	for w := 0; w < 2; w++ {
		go func(w int) {
			c, err := proto.DialMode(srv.Addr(), proto.ModeAuto)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for deadline := time.Now().Add(20 * time.Second); !settled(); {
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("committer %d: jobs never settled", w)
					return
				}
				if _, err := c.Request(proto.TSchedPull, nil); err != nil {
					errs <- err
					return
				}
				var commit proto.SchedCommit
				for _, i := range rng.Perm(n) {
					kind := []string{"start", "start", "grant", "reject"}[rng.Intn(4)]
					commit.Actions = append(commit.Actions, proto.SchedAction{Kind: kind, JobID: ids[i], Reason: "race"})
				}
				env, err := c.Request(proto.TSchedCommit, commit)
				if err != nil {
					errs <- err
					return
				}
				var resp proto.SchedCommitResp
				if err := env.Decode(&resp); err != nil {
					errs <- err
					return
				}
				if resp.Applied+resp.Skipped != n {
					errs <- fmt.Errorf("commit of %d actions answered %+v", n, resp)
					return
				}
				applied.Add(int64(resp.Applied))
			}
			errs <- nil
		}(w)
	}
	go func() {
		rng := rand.New(rand.NewSource(7))
		for _, i := range rng.Perm(n)[:n/3] {
			srv.QDel(ids[i])
			time.Sleep(time.Millisecond)
		}
		errs <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Only "start" can apply: no job has a dyn request to grant or
	// reject. So the applied count is the number of jobs started.
	var started, submitted, queued, active, done, cancelled, used int
	startedJob := map[int]bool{}
	onLoop(t, srv, func() {
		for _, id := range ids {
			if srv.jobs[id].j.StartTime > 0 {
				startedJob[id] = true
				started++
			}
		}
		rm := &srv.rm
		submitted, queued, active = rm.Submitted(), len(rm.QueuedJobs()), len(rm.ActiveJobs())
		done, cancelled, used = rm.Completed(), rm.Cancelled(), rm.Cluster().UsedCores()
	})
	if int(applied.Load()) != started {
		t.Errorf("commits applied %d actions, but %d jobs started", applied.Load(), started)
	}
	mu.Lock()
	t.Logf("%d jobs: %d started by commits, %d cancelled, %d launched", n, started, cancelled, len(launches))
	for id, k := range launches {
		if k > 1 || !startedJob[id] {
			t.Errorf("job %d launched %d times; started by the server: %v", id, k, startedJob[id])
		}
	}
	mu.Unlock()
	if submitted != n || submitted != queued+active+done+cancelled {
		t.Errorf("submitted %d, want %d = queued %d + active %d + done %d + cancelled %d", submitted, n, queued, active, done, cancelled)
	}
	if queued != 0 || active != 0 || used != 0 {
		t.Errorf("settled server has %d queued, %d active, %d cores in use", queued, active, used)
	}
}
