package mom

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/testutil/leak"
	"repro/internal/tm"
)

func TestSubtractHosts(t *testing.T) {
	leak.Check(t)
	have := []proto.HostSlice{
		{Node: "n0", Cores: 8},
		{Node: "n1", Cores: 4},
		{Node: "n2", Cores: 2},
	}
	got := subtractHosts(have, []proto.HostSlice{
		{Node: "n0", Cores: 3},
		{Node: "n1", Cores: 4},
	})
	if len(got) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got[0].Node != "n0" || got[0].Cores != 5 {
		t.Errorf("partial subtraction: %+v", got[0])
	}
	if got[1].Node != "n2" || got[1].Cores != 2 {
		t.Errorf("untouched slice: %+v", got[1])
	}
	// Removing more than held clamps to zero slices, never negative.
	got = subtractHosts(have, []proto.HostSlice{{Node: "n2", Cores: 99}})
	for _, h := range got {
		if h.Cores <= 0 {
			t.Errorf("non-positive slice survived: %+v", h)
		}
	}
	// Subtracting nothing is identity.
	got = subtractHosts(have, nil)
	if len(got) != 3 {
		t.Error("identity subtraction")
	}
}

func TestRegisterGoAppDuplicatePanics(t *testing.T) {
	leak.Check(t)
	t.Cleanup(RegisterGoApp("dup-app-test", func(context.Context, *tm.Context) error { return nil }))
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	RegisterGoApp("dup-app-test", func(context.Context, *tm.Context) error { return nil })
}

// TestRegisterGoAppUnregister: an unregistered app is gone, and its
// name can be registered again.
func TestRegisterGoAppUnregister(t *testing.T) {
	leak.Check(t)
	unregister := RegisterGoApp("transient-app-test", func(context.Context, *tm.Context) error { return nil })
	if _, ok := lookupGoApp("transient-app-test"); !ok {
		t.Fatal("a registered app is not found")
	}
	unregister()
	if _, ok := lookupGoApp("transient-app-test"); ok {
		t.Fatal("an unregistered app is still found")
	}
	RegisterGoApp("transient-app-test", func(context.Context, *tm.Context) error { return nil })()
}

func TestLaunchScriptErrors(t *testing.T) {
	leak.Check(t)
	m := New("testnode", 8)
	tmc := &tm.Context{JobID: 1, MomAddr: "127.0.0.1:1"}
	ctx := context.Background()
	if err := m.launch(ctx, "bogus:stuff", tmc); err == nil {
		t.Error("unknown script kind must error")
	}
	if err := m.launch(ctx, "sleep:notaduration", tmc); err == nil {
		t.Error("bad sleep duration must error")
	}
	if err := m.launch(ctx, "go:not-registered-anywhere", tmc); err == nil {
		t.Error("unregistered go app must error")
	}
	if err := m.launch(ctx, "exec:", tmc); err == nil {
		t.Error("empty exec must error")
	}
	if err := m.launch(ctx, "sleep:1ms", tmc); err != nil {
		t.Errorf("valid sleep: %v", err)
	}
}

func TestLaunchSleepCancellation(t *testing.T) {
	leak.Check(t)
	m := New("testnode2", 8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- m.launch(ctx, "sleep:1h", &tm.Context{})
	}()
	cancel()
	if err := <-done; err == nil {
		t.Error("cancelled sleep should return the context error")
	}
}

func TestLaunchExec(t *testing.T) {
	leak.Check(t)
	m := New("testnode3", 8)
	if err := m.launch(context.Background(), "exec:true", &tm.Context{JobID: 5, MomAddr: "x"}); err != nil {
		t.Errorf("exec true: %v", err)
	}
	if err := m.launch(context.Background(), "exec:false", &tm.Context{JobID: 5, MomAddr: "x"}); err == nil {
		t.Error("exec false should report failure")
	}
}

func TestMomAddrBeforeStart(t *testing.T) {
	leak.Check(t)
	m := New("n", 4)
	if m.Addr() != "" {
		t.Error("Addr before Start should be empty")
	}
	if m.Name() != "n" {
		t.Error("Name accessor")
	}
	if len(m.Jobs()) != 0 {
		t.Error("fresh mom has no jobs")
	}
}

func TestStartFailsWithoutServer(t *testing.T) {
	leak.Check(t)
	m := New("lonely", 4)
	// 127.0.0.1:1 is essentially guaranteed closed.
	if err := m.Start("127.0.0.1:0", "127.0.0.1:1"); err == nil {
		m.Close()
		t.Error("Start must fail when the server is unreachable")
	}
}

// TestReconnectInstallLosesToClose pins the reconnect/Close race: a
// dial that completes after Close() has run must not be installed as
// the server link — Close already closed whatever link it saw, so a
// late install would leave serverLoop parked in Recv forever. The
// loser must also close the fresh connection (the peer sees EOF).
func TestReconnectInstallLosesToClose(t *testing.T) {
	leak.Check(t)
	m := New("racer", 4)
	m.Close()

	ours, theirs := net.Pipe()
	if m.installServerConn(proto.NewConn(ours)) {
		t.Fatal("install must lose to a completed Close")
	}
	if m.server() != nil {
		t.Fatal("closed mom must not hold a server link")
	}
	// The discarded connection must be closed, not leaked: the peer's
	// read unblocks with an error.
	theirs.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := theirs.Read(make([]byte, 1)); err == nil {
		t.Fatal("discarded connection was not closed")
	}
}

// TestReconnectInstallWinsWhileOpen is the happy path of the same
// guard: before Close, the install publishes the link.
func TestReconnectInstallWinsWhileOpen(t *testing.T) {
	leak.Check(t)
	m := New("racer2", 4)
	ours, theirs := net.Pipe()
	defer theirs.Close()
	c := proto.NewConn(ours)
	if !m.installServerConn(c) {
		t.Fatal("install must win while the mom is open")
	}
	if m.server() != c {
		t.Fatal("installed link not published")
	}
	m.Close()
}

// TestTMDynGetServerUnreachableRacesKill: a mom with no server link
// answers an application's tm_dynget with an error, taking the pending
// request back, while a kill of the same job runs beside it; the
// application hears one refusal, and -race watches the job record both
// paths touch.
func TestTMDynGetServerUnreachableRacesKill(t *testing.T) {
	leak.Check(t)
	m := New("n", 8)
	t.Cleanup(m.Close)
	for id := 1; id <= 100; id++ {
		m.runJob(proto.RunJobReq{JobID: id, Spec: proto.JobSpec{Script: "sleep:1m"}, Hosts: []proto.HostSlice{{Node: "n", Cores: 2}}})
		app, side := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			m.handleTMDynGet(proto.NewConn(side), proto.TMDynGetReq{JobID: id, Cores: 2})
		}()
		go func() {
			defer wg.Done()
			m.killJob(id)
		}()
		c := proto.NewConn(app)
		env, err := c.Recv()
		if err != nil {
			t.Fatalf("job %d: no answer to tm_dynget: %v", id, err)
		}
		var resp proto.TMResp
		if env.Type != proto.TTMResp || env.Decode(&resp) != nil || resp.OK {
			t.Fatalf("job %d: answer %v %+v, want a refusal", id, env.Type, resp)
		}
		wg.Wait()
		_ = c.Close()
	}
	waitJobs(t, m, 0)
}

// TestOutboxReplayFailureKeepsOrder: completions parked while the
// server link was down stay parked, in order, when their replay fails
// on the first send.
func TestOutboxReplayFailureKeepsOrder(t *testing.T) {
	leak.Check(t)
	m := New("n", 4)
	t.Cleanup(m.Close)
	for id := 1; id <= 3; id++ {
		m.tellServerBuffered(proto.TJobDone, id, proto.JobDoneReq{JobID: id})
	}
	ours, theirs := net.Pipe()
	_ = theirs.Close()
	c := proto.NewConn(ours)
	defer c.Close()
	m.flushOutbox(c)
	m.mu.Lock()
	var ids []int
	for _, om := range m.outbox {
		ids = append(ids, om.jobID)
	}
	m.mu.Unlock()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("outbox after a failed replay holds jobs %v, want [1 2 3]", ids)
	}
}
