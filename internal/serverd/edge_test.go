package serverd

import (
	"fmt"
	"math"
	"repro/internal/testutil/leak"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/sim"
)

// TestQSubRefusesBadSizes: a spec whose walltime or node shape cannot
// be represented is refused at submission instead of queuing a job with
// a wrapped size; the largest representable values are accepted.
func TestQSubRefusesBadSizes(t *testing.T) {
	const maxWall = int64(sim.Forever / sim.Second)
	for _, c := range []struct {
		name  string
		spec  proto.JobSpec
		ok    bool
		cores int
	}{
		{"cores", proto.JobSpec{Cores: 4, WallSecs: 60}, true, 4},
		{"nodes", proto.JobSpec{Nodes: 2, PPN: 8, WallSecs: 60}, true, 16},
		{"longest walltime", proto.JobSpec{Cores: 1, WallSecs: maxWall}, true, 1},
		{"widest node", proto.JobSpec{Nodes: 1, PPN: cluster.MaxNodeCores, WallSecs: 60}, true, cluster.MaxNodeCores},
		{"no resources", proto.JobSpec{WallSecs: 60}, false, 0},
		{"no walltime", proto.JobSpec{Cores: 1}, false, 0},
		{"walltime wraps", proto.JobSpec{Cores: 1, WallSecs: 1 << 54}, false, 0},
		{"walltime past Forever", proto.JobSpec{Cores: 1, WallSecs: maxWall + 1}, false, 0},
		{"nodes without ppn", proto.JobSpec{Nodes: 2, WallSecs: 60}, false, 0},
		{"negative ppn", proto.JobSpec{Nodes: 2, PPN: -8, WallSecs: 60}, false, 0},
		{"ppn past a node", proto.JobSpec{Nodes: 1, PPN: cluster.MaxNodeCores + 1, WallSecs: 60}, false, 0},
		{"nodes×ppn wraps positive", proto.JobSpec{Nodes: 1<<62 + 1, PPN: 4, WallSecs: 60}, false, 0},
		{"nodes×ppn overflows", proto.JobSpec{Nodes: math.MaxInt / 8, PPN: 16, WallSecs: 60}, false, 0},
	} {
		srv := New(Options{Sched: core.New(core.Options{}, 0)})
		id, err := srv.QSub(c.spec)
		if (err == nil) != c.ok {
			t.Errorf("%s: QSub = %d, %v; want ok=%v", c.name, id, err, c.ok)
			continue
		}
		if !c.ok {
			if n := srv.rm.Submitted(); n != 0 {
				t.Errorf("%s: refused spec still submitted %d jobs", c.name, n)
			}
			continue
		}
		j := srv.jobs[id].j
		if want := sim.Duration(c.spec.WallSecs) * sim.Second; j.Cores != c.cores || j.Walltime != want || j.Walltime <= 0 {
			t.Errorf("%s: job has %d cores, walltime %d; want %d, %d", c.name, j.Cores, j.Walltime, c.cores, want)
		}
		if j.State != job.Queued {
			t.Errorf("%s: accepted job is %v, want queued", c.name, j.State)
		}
	}
}

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

	srv.mu.Lock()
	st := srv.snapshotLocked()
	srv.mu.Unlock()
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

// schedPull issues one sched.pull on c and decodes whichever answer
// comes back; exactly one of the results is non-nil.
func schedPull(t *testing.T, c *proto.Conn) (*proto.SchedState, *proto.SchedDelta) {
	t.Helper()
	env, err := c.Request(proto.TSchedPull, nil)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type == proto.TSchedState {
		var st proto.SchedState
		if err := env.Decode(&st); err != nil {
			t.Fatal(err)
		}
		return &st, nil
	}
	if env.Type != proto.TSchedDelta {
		t.Fatalf("sched.pull answered %s", env.Type)
	}
	var d proto.SchedDelta
	if err := env.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return nil, &d
}

// TestSchedSessionFullThenDelta pins when a sched.pull is answered in
// full and when as a delta, under both codecs: the first pull on a link
// is the full snapshot, later ones carry only what was touched since —
// new and requeued jobs in Tail, everything else in Jobs, each job once
// — a commit's jobs are reported back applied or not, a link that fell
// behind the change log gets the full snapshot again, and so does every
// new link.
func TestSchedSessionFullThenDelta(t *testing.T) {
	leak.Check(t)
	for _, mode := range []proto.Mode{proto.ModeV1, proto.ModeV2} {
		srv := New(Options{})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		c, err := proto.DialMode(srv.Addr(), mode)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		qsub := func(cores int) int {
			id, err := srv.QSub(proto.JobSpec{Name: "s", User: "u", Cores: cores, WallSecs: 60, Script: "sleep:1m"})
			if err != nil {
				t.Fatal(err)
			}
			return id
		}
		a := qsub(1)
		if st, _ := schedPull(t, c); st == nil || len(st.Queued) != 1 || st.Queued[0].ID != a {
			t.Fatalf("%s: first pull = %+v, want the full snapshot with job %d", mode, st, a)
		}
		if _, d := schedPull(t, c); d == nil || len(d.Jobs)+len(d.Tail) != 0 {
			t.Fatalf("%s: idle pull = %+v, want an empty delta", mode, d)
		}
		b, cc := qsub(2), qsub(3)
		srv.QDel(a)
		srv.QDel(cc)
		_, d := schedPull(t, c)
		if d == nil || len(d.Tail) != 1 || d.Tail[0].ID != b || d.Tail[0].State != "queued" {
			t.Fatalf("%s: delta after qsub+qdel = %+v, want job %d alone in Tail", mode, d, b)
		}
		if len(d.Jobs) != 2 || d.Jobs[0].State != "cancelled" || d.Jobs[1].State != "cancelled" {
			t.Fatalf("%s: delta Jobs = %+v, want jobs %d and %d cancelled, once each", mode, d.Jobs, a, cc)
		}
		// A commit nobody can apply (no mom is registered): its job comes
		// back in the next delta all the same, still queued, not in Tail.
		env, err := c.Request(proto.TSchedCommit, proto.SchedCommit{Actions: []proto.SchedAction{{Kind: "start", JobID: b}}})
		if err != nil || env.Type != proto.TOK {
			t.Fatalf("%s: commit on the session = %v, %v", mode, env, err)
		}
		var resp proto.SchedCommitResp
		if err := env.Decode(&resp); err != nil || resp.Skipped != 1 {
			t.Fatalf("%s: commit response %+v, %v; want one skipped", mode, resp, err)
		}
		if _, d := schedPull(t, c); d == nil || len(d.Tail) != 0 || len(d.Jobs) != 1 || d.Jobs[0].ID != b || d.Jobs[0].State != "queued" {
			t.Fatalf("%s: delta after a skipped commit = %+v, want job %d queued in Jobs", mode, d, b)
		}
		// Fall behind: more touches than the log keeps.
		for i := 0; i < touchLogKeep; i++ {
			srv.QDel(qsub(1)) // three log entries each
		}
		st, _ := schedPull(t, c)
		if st == nil || len(st.Queued) != 1 || st.Queued[0].ID != b {
			t.Fatalf("%s: pull after the log overflowed = %+v, want the full snapshot with job %d", mode, st, b)
		}
		if _, d := schedPull(t, c); d == nil {
			t.Fatalf("%s: the pull after a resync should be a delta again", mode)
		}
		// A one-shot client, as every scheduler before this protocol was.
		one, err := proto.DialMode(srv.Addr(), mode)
		if err != nil {
			t.Fatal(err)
		}
		st, _ = schedPull(t, one)
		_ = one.Close()
		if st == nil || st.Serial == 0 {
			t.Fatalf("%s: a new link's first pull = %+v, want the full snapshot", mode, st)
		}
	}
}

// TestChangeLogOffWithoutSession: nothing is recorded while no
// scheduler is connected, and the log is dropped when the last one
// leaves.
func TestChangeLogOffWithoutSession(t *testing.T) {
	leak.Check(t)
	srv := New(Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	logLen := func() (n, links int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.touched), srv.schedLinks
	}
	if _, err := srv.QSub(proto.JobSpec{Name: "s", User: "u", Cores: 1, WallSecs: 60, Script: "sleep:1m"}); err != nil {
		t.Fatal(err)
	}
	if n, links := logLen(); n != 0 || links != 0 {
		t.Fatalf("log holds %d entries with %d sessions open, want 0 and 0", n, links)
	}
	c, err := proto.DialMode(srv.Addr(), proto.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	schedPull(t, c)
	if _, err := srv.QSub(proto.JobSpec{Name: "s", User: "u", Cores: 1, WallSecs: 60, Script: "sleep:1m"}); err != nil {
		t.Fatal(err)
	}
	if n, links := logLen(); n != 1 || links != 1 {
		t.Fatalf("log holds %d entries with %d sessions open, want 1 and 1", n, links)
	}
	_ = c.Close()
	waitFor(t, 3*time.Second, func() bool { n, links := logLen(); return n == 0 && links == 0 }, "the session to end and the log to go")
}
