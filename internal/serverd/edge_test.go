package serverd

import (
	"fmt"
	"repro/internal/testutil/leak"
	"testing"
	"time"

	"repro/internal/mom"
	"repro/internal/proto"
)

// TestStaleSchedCommitSkipped: a commit that references jobs in states
// the server has moved past must be skipped gracefully, never applied.
func TestStaleSchedCommitSkipped(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	id, err := srv.QSub(proto.JobSpec{
		Name: "j", User: "u", Cores: 4, WallSecs: 60, Script: "sleep:50ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "completed" }, "job done")

	// "start" for a completed job, "grant"/"reject" with no pending
	// request, and an unknown job id: all skipped.
	resp := srv.applyCommit(proto.SchedCommit{Actions: []proto.SchedAction{
		{Kind: "start", JobID: id},
		{Kind: "grant", JobID: id},
		{Kind: "reject", JobID: id},
		{Kind: "start", JobID: 999},
		{Kind: "bogus", JobID: id},
	}})
	if resp.Applied != 0 || resp.Skipped != 5 {
		t.Errorf("applied=%d skipped=%d, want 0/5", resp.Applied, resp.Skipped)
	}
}

// TestBadSchedCommitAnswersError: a sched.commit whose payload does not
// decode must come back as TError under both codecs. It used to come
// back as a zero SchedCommitResp under TOK, which an external scheduler
// reads as "nothing applied" and never backs off from.
func TestBadSchedCommitAnswersError(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	for _, mode := range []proto.Mode{proto.ModeV1, proto.ModeV2} {
		c, err := proto.DialMode(srv.Addr(), mode)
		if err != nil {
			t.Fatal(err)
		}
		// A payload that frames correctly and is not a commit: a JSON
		// string under v1, another struct's codec id under v2.
		var bad any = "not a commit"
		if mode == proto.ModeV2 {
			bad = proto.QDelReq{JobID: 1}
		}
		env, err := c.Request(proto.TSchedCommit, bad)
		_ = c.Close()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if env.Type != proto.TError {
			t.Fatalf("%s: undecodable commit answered with %s, want %s", mode, env.Type, proto.TError)
		}
		var e proto.ErrorResp
		if err := env.Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s: error reply = %+v, %v", mode, e, err)
		}
	}
}

// TestSchedPullSnapshotContents checks the external-scheduler snapshot
// carries consistent queue/node/dyn state.
func TestSchedPullSnapshotContents(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 2, 8)
	// One running job and one queued (too big).
	runID, _ := srv.QSub(proto.JobSpec{Name: "r", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:1m"})
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, runID) == "running" }, "runner up")
	qID, _ := srv.QSub(proto.JobSpec{Name: "q", User: "v", Cores: 99, WallSecs: 60, Script: "sleep:1m"})

	st := srv.snapshot()
	if len(st.Nodes) != 2 {
		t.Errorf("nodes = %d", len(st.Nodes))
	}
	foundQ, foundR := false, false
	for _, j := range st.Queued {
		if j.ID == qID && j.State == "queued" {
			foundQ = true
		}
	}
	for _, j := range st.Active {
		if j.ID == runID && j.State == "running" {
			foundR = true
		}
	}
	if !foundQ || !foundR {
		t.Errorf("snapshot missing jobs: queued=%v active=%v", foundQ, foundR)
	}
	used := 0
	for _, n := range st.Nodes {
		used += n.Used
	}
	if used != 8 {
		t.Errorf("snapshot used cores = %d", used)
	}
	if st.Serial == 0 {
		t.Error("serial should advance with state changes")
	}
}

// TestMomReRegistration: a mom that reconnects under the same node
// name must not duplicate the node.
func TestMomReRegistration(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	m2 := mom.New("node0", 8) // same name as the existing mom
	if err := m2.Start("127.0.0.1:0", srv.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m2.Close)
	// Give the registration a moment; node count must stay 1.
	time.Sleep(50 * time.Millisecond)
	if n := len(srv.QStat().Nodes); n != 1 {
		t.Errorf("nodes after re-registration = %d, want 1", n)
	}
	// The cluster still works.
	id, err := srv.QSub(proto.JobSpec{Name: "x", User: "u", Cores: 4, WallSecs: 60, Script: "sleep:20ms"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "completed" }, "job done")
}

// TestQDelUnknownJobIsNoop and double-deletion safety.
func TestQDelUnknownJob(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	srv.QDel(12345) // no panic, no effect
	id, _ := srv.QSub(proto.JobSpec{Name: "x", User: "u", Cores: 4, WallSecs: 60, Script: "sleep:10m"})
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "running" }, "running")
	srv.QDel(id)
	srv.QDel(id) // double delete
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "cancelled" }, "cancelled")
}

// TestUnexpectedFirstMessage: a connection opening with a non-protocol
// message gets an error reply and the server stays healthy.
func TestUnexpectedFirstMessage(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	c, err := proto.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	env, err := c.Request(proto.TJobDone, proto.JobDoneReq{JobID: 1})
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != proto.TError {
		t.Errorf("reply = %s, want error", env.Type)
	}
	// Server still serves.
	if _, err := srv.QSub(proto.JobSpec{Name: "ok", User: "u", Cores: 1, WallSecs: 10, Script: "sleep:1ms"}); err != nil {
		t.Fatal(err)
	}
}

// TestManyConcurrentClients hammers qsub/qstat concurrently.
func TestManyConcurrentClients(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 2, 8)
	done := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func(i int) {
			c, err := proto.Dial(srv.Addr())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			if i%2 == 0 {
				_, err = c.Request(proto.TQSub, proto.JobSpec{
					Name: fmt.Sprintf("c%d", i), User: "u", Cores: 1, WallSecs: 60, Script: "sleep:10ms",
				})
			} else {
				_, err = c.Request(proto.TQStat, nil)
			}
			done <- err
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		for _, j := range srv.QStat().Jobs {
			if j.State != "completed" {
				return false
			}
		}
		return true
	}, "all client jobs done")
}
