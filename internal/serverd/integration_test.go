package serverd

import (
	"context"
	"fmt"
	"repro/internal/testutil/leak"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/tm"
)

// liveCluster spins up a server (embedded scheduler) and n moms on
// loopback, and tears everything down with the test.
func liveCluster(t *testing.T, n, coresPerNode int) *Server {
	t.Helper()
	sched := core.New(core.Options{}, 0)
	srv := New(Options{Sched: sched, PollInterval: 20 * time.Millisecond})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for i := 0; i < n; i++ {
		m := mom.New(fmt.Sprintf("node%d", i), coresPerNode)
		if err := m.Start("127.0.0.1:0", srv.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
	}
	waitFor(t, time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.nodes) == n
	}, "moms registered")
	return srv
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func jobState(srv *Server, id int) string {
	for _, j := range srv.QStat().Jobs {
		if j.ID == id {
			return j.State
		}
	}
	return ""
}

func TestLiveJobLifecycle(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 2, 8)
	id, err := srv.QSub(proto.JobSpec{
		Name: "hello", User: "alice", Cores: 12, WallSecs: 60, Script: "sleep:50ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "completed" }, "job completion")
	jobs := srv.Recorder().Jobs()
	if len(jobs) != 1 || jobs[0].User != "alice" || jobs[0].Cores != 12 {
		t.Errorf("metrics = %+v", jobs)
	}
	// Resources released.
	stat := srv.QStat()
	for _, n := range stat.Nodes {
		if n.Used != 0 {
			t.Errorf("node %s still has %d used cores", n.Name, n.Used)
		}
	}
}

func TestLiveQSubValidation(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	if _, err := srv.QSub(proto.JobSpec{User: "u", WallSecs: 10, Script: "sleep:1ms"}); err == nil {
		t.Error("zero-core job must be rejected")
	}
	if _, err := srv.QSub(proto.JobSpec{User: "u", Cores: 4, Script: "sleep:1ms"}); err == nil {
		t.Error("missing walltime must be rejected")
	}
}

// TestRegisterRefusesImpossibleCoreCounts: a mom claiming no cores, or
// more than a node may have, is hung up on without becoming a node, and
// the server goes on scheduling on the nodes it has.
func TestRegisterRefusesImpossibleCoreCounts(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	for i, cores := range []int{cluster.MaxNodeCores + 1, 1 << 30, 0, -8} {
		c, err := proto.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(proto.TRegister, proto.RegisterReq{Node: fmt.Sprintf("huge%d", i), Addr: "nowhere", Cores: cores}); err != nil {
			t.Fatal(err)
		}
		c.SetReadTimeout(5 * time.Second)
		_, err = c.Recv()
		c.Close()
		if err == nil {
			t.Fatalf("a mom with %d cores got an answer instead of a hang-up", cores)
		}
	}
	srv.mu.Lock()
	nodes, clNodes := len(srv.nodes), srv.rm.Cluster().NumNodes()
	srv.mu.Unlock()
	if nodes != 1 || clNodes != 1 {
		t.Fatalf("%d nodes registered, %d in the cluster; want only the real mom", nodes, clNodes)
	}
	id, err := srv.QSub(proto.JobSpec{Name: "after", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:10ms"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "completed" }, "a job to run after the refusals")
}

func TestLiveClientProtocol(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	// qsub over TCP.
	c, err := proto.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	env, err := c.Request(proto.TQSub, proto.JobSpec{
		Name: "tcp", User: "bob", Cores: 4, WallSecs: 60, Script: "sleep:30ms",
	})
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	var resp proto.QSubResp
	if err := env.Decode(&resp); err != nil || resp.Error != "" || resp.JobID == 0 {
		t.Fatalf("qsub resp = %+v, %v", resp, err)
	}
	// qstat over TCP.
	c2, _ := proto.Dial(srv.Addr())
	env2, err := c2.Request(proto.TQStat, nil)
	c2.Close()
	if err != nil || env2.Type != proto.TQStatResp {
		t.Fatalf("qstat: %v %v", env2, err)
	}
	var stat proto.QStatResp
	if err := env2.Decode(&stat); err != nil || len(stat.Jobs) != 1 || len(stat.Nodes) != 1 {
		t.Fatalf("stat = %+v", stat)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, resp.JobID) == "completed" }, "tcp job done")
}

func TestLiveQDel(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	id, err := srv.QSub(proto.JobSpec{
		Name: "victim", User: "u", Cores: 8, WallSecs: 600, Script: "sleep:10m",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "running" }, "job start")
	c, _ := proto.Dial(srv.Addr())
	if _, err := c.Request(proto.TQDel, proto.QDelReq{JobID: id}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "cancelled" }, "job cancelled")
	stat := srv.QStat()
	for _, n := range stat.Nodes {
		if n.Used != 0 {
			t.Errorf("cancelled job left %d cores on %s", n.Used, n.Name)
		}
	}
}

func TestLiveDynGetGrantAndJoin(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 3, 8)
	gotHosts := make(chan []proto.HostSlice, 1)
	mom.RegisterGoApp("grower-test", func(ctx context.Context, tmc *tm.Context) error {
		hosts, err := tmc.DynGet(10) // must span at least two more nodes
		if err != nil {
			return err
		}
		gotHosts <- hosts
		time.Sleep(30 * time.Millisecond)
		return nil
	})
	id, err := srv.QSub(proto.JobSpec{
		Name: "F.live", User: "user06", Cores: 8, WallSecs: 120,
		Script: "go:grower-test", Evolving: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var hosts []proto.HostSlice
	select {
	case hosts = <-gotHosts:
	case <-time.After(5 * time.Second):
		t.Fatal("tm_dynget round trip timed out")
	}
	total := 0
	for _, h := range hosts {
		total += h.Cores
		if h.Addr == "" || h.Node == "" {
			t.Errorf("host slice missing address: %+v", h)
		}
	}
	if total != 10 {
		t.Errorf("granted cores = %d, want 10", total)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "completed" }, "evolving job completion")
	rec := srv.Recorder().Jobs()
	if len(rec) != 1 || !rec[0].DynGranted || !rec[0].Evolving {
		t.Errorf("record = %+v", rec)
	}
	if rec[0].Cores != 18 {
		t.Errorf("final cores = %d, want 18", rec[0].Cores)
	}
}

func TestLiveDynGetRejected(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	verdict := make(chan error, 1)
	mom.RegisterGoApp("greedy-test", func(ctx context.Context, tmc *tm.Context) error {
		_, err := tmc.DynGet(100) // impossible on an 8-core cluster
		verdict <- err
		return nil
	})
	if _, err := srv.QSub(proto.JobSpec{
		Name: "greedy", User: "u", Cores: 8, WallSecs: 60,
		Script: "go:greedy-test", Evolving: true,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-verdict:
		if !tm.IsRejected(err) {
			t.Errorf("want Rejected error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("verdict timed out")
	}
}

func TestLiveDynFree(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 2, 8)
	freed := make(chan error, 1)
	mom.RegisterGoApp("releaser-test", func(ctx context.Context, tmc *tm.Context) error {
		hosts, err := tmc.DynGet(8)
		if err != nil {
			freed <- err
			return err
		}
		err = tmc.DynFree(hosts)
		freed <- err
		time.Sleep(30 * time.Millisecond)
		return nil
	})
	id, err := srv.QSub(proto.JobSpec{
		Name: "rel", User: "u", Cores: 8, WallSecs: 120,
		Script: "go:releaser-test", Evolving: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-freed:
		if err != nil {
			t.Fatalf("dynfree: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dynfree timed out")
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "completed" }, "job completion")
	stat := srv.QStat()
	for _, n := range stat.Nodes {
		if n.Used != 0 {
			t.Errorf("node %s leaked %d cores", n.Name, n.Used)
		}
	}
}

func TestLiveWalltimeEnforcement(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	id, err := srv.QSub(proto.JobSpec{
		Name: "overrun", User: "u", Cores: 8, WallSecs: 1, Script: "sleep:1h",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return jobState(srv, id) == "cancelled" }, "walltime kill")
	stat := srv.QStat()
	for _, n := range stat.Nodes {
		if n.Used != 0 {
			t.Errorf("killed job left cores on %s", n.Name)
		}
	}
}

// TestLiveWalltimeKillChargesFairshare: a running job killed at its
// walltime has used its cores all the same, so its user is charged for
// them, as on completion.
func TestLiveWalltimeKillChargesFairshare(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	id, err := srv.QSub(proto.JobSpec{
		Name: "overrun", User: "hog", Cores: 8, WallSecs: 1, Script: "sleep:1h",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return jobState(srv, id) == "cancelled" }, "walltime kill")
	srv.mu.Lock()
	usage := srv.opts.Sched.Fairshare().Usage("hog")
	srv.mu.Unlock()
	if usage < 7 { // 8 cores for ~1 s
		t.Errorf("fairshare usage after a walltime kill = %.2f core-seconds, want about 8", usage)
	}
}

// TestLiveJobRecordTypeIsNamePrefix: the live server records a job's
// workload type as the simulator does, so a named ESP job is found by
// its type.
func TestLiveJobRecordTypeIsNamePrefix(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	id, err := srv.QSub(proto.JobSpec{Name: "L.3", User: "u", Cores: 2, WallSecs: 60, Script: "sleep:10ms"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "completed" }, "job completion")
	if recs := srv.Recorder().JobsOfType("L"); len(recs) != 1 || int(recs[0].ID) != id {
		t.Errorf("JobsOfType(\"L\") = %+v, want job %d", recs, id)
	}
}

func TestLiveQueueingAndBackfill(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 2, 8)
	// Fill the cluster, then queue a big job and a small one that
	// backfills.
	id1, _ := srv.QSub(proto.JobSpec{Name: "hold", User: "a", Cores: 16, WallSecs: 2, Script: "sleep:300ms"})
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id1) == "running" }, "holder running")
	id2, _ := srv.QSub(proto.JobSpec{Name: "big", User: "b", Cores: 16, WallSecs: 60, Script: "sleep:50ms"})
	id3, _ := srv.QSub(proto.JobSpec{Name: "small", User: "c", Cores: 16, WallSecs: 1, Script: "sleep:20ms"})
	waitFor(t, 10*time.Second, func() bool {
		return jobState(srv, id2) == "completed" && jobState(srv, id3) == "completed"
	}, "queued jobs completion")
}

// TestLiveNegotiationTimeout exercises the negotiation protocol over
// real sockets: the first request waits out a blocker and is granted;
// the second expires at its deadline with a rejection.
func TestLiveNegotiationTimeout(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 2, 8)
	granted := make(chan error, 1)
	mom.RegisterGoApp("negotiator-live", func(ctx context.Context, tmc *tm.Context) error {
		// The whole second node is busy for ~300 ms; a 5 s negotiation
		// window is plenty.
		_, err := tmc.DynGetTimeout(8, 5*time.Second)
		granted <- err
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	blockID, err := srv.QSub(proto.JobSpec{
		Name: "blk", User: "x", Cores: 8, WallSecs: 60, Script: "sleep:300ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, blockID) == "running" }, "blocker running")
	id, err := srv.QSub(proto.JobSpec{
		Name: "neg", User: "u", Cores: 8, WallSecs: 60,
		Script: "go:negotiator-live", Evolving: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-granted:
		if err != nil {
			t.Fatalf("negotiable request should be granted after the blocker ends: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("negotiation timed out")
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "completed" }, "job completion")

	// Expiry path: a permanent blocker and a 1 s window.
	srv2 := liveCluster(t, 1, 8)
	verdict := make(chan error, 1)
	mom.RegisterGoApp("negotiator-expire", func(ctx context.Context, tmc *tm.Context) error {
		_, err := tmc.DynGetTimeout(100, time.Second)
		verdict <- err
		return nil
	})
	if _, err := srv2.QSub(proto.JobSpec{
		Name: "neg2", User: "u", Cores: 8, WallSecs: 60,
		Script: "go:negotiator-expire", Evolving: true,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-verdict:
		if !tm.IsRejected(err) {
			t.Fatalf("want deadline rejection, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("expiry verdict never arrived")
	}
}
