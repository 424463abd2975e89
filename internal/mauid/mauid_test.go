package mauid

import (
	"context"
	"errors"
	"fmt"
	"net"
	"repro/internal/testutil/leak"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/serverd"
	"repro/internal/sim"
	"repro/internal/tm"
)

// externalCluster starts a server WITHOUT an embedded scheduler plus n
// moms, and a mauid daemon driving it — the paper's two-daemon
// headnode architecture.
func externalCluster(t *testing.T, n, cores int) (*serverd.Server, *Daemon) {
	t.Helper()
	srv := serverd.New(serverd.Options{Sched: nil})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for i := 0; i < n; i++ {
		m := mom.New(fmt.Sprintf("xnode%d", i), cores)
		if err := m.Start("127.0.0.1:0", srv.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
	}
	d := New(srv.Addr(), core.New(core.Options{}, 0), 15*time.Millisecond)
	d.Start()
	t.Cleanup(d.Close)
	return srv, d
}

func waitState(t *testing.T, srv *serverd.Server, id int, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, j := range srv.QStat().Jobs {
			if j.ID == id && j.State == want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %d never reached %s", id, want)
}

func TestExternalSchedulerRunsJobs(t *testing.T) {
	leak.Check(t)
	srv, _ := externalCluster(t, 2, 8)
	id, err := srv.QSub(proto.JobSpec{
		Name: "ext", User: "u", Cores: 12, WallSecs: 60, Script: "sleep:40ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, id, "completed", 5*time.Second)
}

func TestExternalSchedulerQueueDrains(t *testing.T) {
	leak.Check(t)
	srv, _ := externalCluster(t, 1, 8)
	var ids []int
	for i := 0; i < 4; i++ {
		id, err := srv.QSub(proto.JobSpec{
			Name: fmt.Sprintf("q%d", i), User: "u", Cores: 8, WallSecs: 60, Script: "sleep:20ms",
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitState(t, srv, id, "completed", 10*time.Second)
	}
}

func TestExternalSchedulerDynGet(t *testing.T) {
	leak.Check(t)
	srv, d := externalCluster(t, 2, 8)
	granted := make(chan []proto.HostSlice, 1)
	t.Cleanup(mom.RegisterGoApp("ext-grower", func(ctx context.Context, tmc *tm.Context) error {
		hosts, err := tmc.DynGet(4)
		if err != nil {
			return err
		}
		granted <- hosts
		time.Sleep(20 * time.Millisecond)
		return nil
	}))
	id, err := srv.QSub(proto.JobSpec{
		Name: "F.ext", User: "user06", Cores: 8, WallSecs: 120,
		Script: "go:ext-grower", Evolving: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case hosts := <-granted:
		total := 0
		for _, h := range hosts {
			total += h.Cores
		}
		if total != 4 {
			t.Errorf("granted %d cores", total)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("external dynget timed out")
	}
	waitState(t, srv, id, "completed", 5*time.Second)
	if d.Scheduler().Iterations() == 0 {
		t.Error("daemon never iterated")
	}
}

func TestMirrorFromSnapshot(t *testing.T) {
	leak.Check(t)
	st := &proto.SchedState{
		NowMS: 1000,
		Nodes: []proto.NodeStatus{
			{Name: "n0", Cores: 8, Used: 4, State: "up"},
			{Name: "n1", Cores: 8, Used: 0, State: "up"},
			{Name: "n2", Cores: 8, Used: 0, State: "down"},
		},
		Queued: []proto.SchedJob{{ID: 1, User: "u", State: "queued", Cores: 8, WallSecs: 60}},
		Active: []proto.SchedJob{{ID: 2, User: "v", State: "running", Cores: 4, WallSecs: 120, Evolving: true}},
		Dyn:    []proto.SchedDynReq{{JobID: 2, Cores: 2, Seq: 0}},
	}
	m, err := newMirror(st)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cluster().TotalCores() != 16 { // down node excluded
		t.Errorf("mirror capacity = %d", m.Cluster().TotalCores())
	}
	if m.Cluster().IdleCores() != 12 {
		t.Errorf("mirror idle = %d", m.Cluster().IdleCores())
	}
	if len(m.QueuedJobs()) != 1 || len(m.ActiveJobs()) != 1 || len(m.DynRequests()) != 1 {
		t.Error("mirror workload counts")
	}
	if m.DynRequests()[0].Job.ID != 2 {
		t.Error("dyn request not linked to active job")
	}
	// Decisions are recorded as actions.
	if _, err := m.StartJob(m.QueuedJobs()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.GrantDyn(m.DynRequests()[0]); err != nil {
		t.Fatal(err)
	}
	if len(m.actions) != 2 || m.actions[0].Kind != "start" || m.actions[1].Kind != "grant" {
		t.Errorf("actions = %+v", m.actions)
	}
	if err := m.Preempt(&job.Job{}); err == nil {
		t.Error("mirror preemption must be unsupported")
	}
}

// TestMirrorStartStampsPullTime: a job the mirror starts starts at the
// server clock of the cycle's pull. Left at the queued record's 0, the
// rest of the cycle would plan it as a job long past its walltime.
func TestMirrorStartStampsPullTime(t *testing.T) {
	leak.Check(t)
	nodes := []proto.NodeStatus{{Name: "n0", Cores: 8, State: "up"}}
	m, err := newMirror(&proto.SchedState{NowMS: 5000, Serial: 1, Nodes: nodes, Queued: []proto.SchedJob{
		{ID: 1, User: "u", State: "queued", Cores: 2, WallSecs: 60},
		{ID: 2, User: "u", State: "queued", Cores: 2, WallSecs: 60},
	}})
	if err != nil {
		t.Fatal(err)
	}
	start := func(pullMS int64) {
		t.Helper()
		j := m.QueuedJobs()[0]
		if _, err := m.StartJob(j); err != nil {
			t.Fatal(err)
		}
		if j.StartTime != sim.Time(pullMS) {
			t.Errorf("job %d started at %d, want the pull's NowMS %d", j.ID, j.StartTime, pullMS)
		}
	}
	start(5000)
	if err := m.apply(&proto.SchedDelta{NowMS: 9000, Serial: 2, Nodes: nodes}); err != nil {
		t.Fatal(err)
	}
	start(9000)
}

func TestMirrorOverfullSnapshot(t *testing.T) {
	leak.Check(t)
	st := &proto.SchedState{
		Nodes: []proto.NodeStatus{{Name: "n0", Cores: 8, Used: 9, State: "up"}},
	}
	if _, err := newMirror(st); err == nil {
		t.Error("impossible usage must fail")
	}
}

// TestMirrorRejectsImpossibleNode: a node of no cores, or of more than
// a node may have, fails the cycle instead of reaching the mirror's
// cluster, in a snapshot and in a delta alike.
func TestMirrorRejectsImpossibleNode(t *testing.T) {
	leak.Check(t)
	for _, cores := range []int{cluster.MaxNodeCores + 1, 1 << 30, 0, -1} {
		st := &proto.SchedState{Nodes: []proto.NodeStatus{{Name: "n0", Cores: cores, State: "up"}}}
		if _, err := newMirror(st); err == nil {
			t.Errorf("a snapshot node of %d cores must fail", cores)
		}
	}
	m, err := newMirror(&proto.SchedState{Nodes: []proto.NodeStatus{{Name: "n0", Cores: 8, State: "up"}}})
	if err != nil {
		t.Fatal(err)
	}
	bad := &proto.SchedDelta{Serial: 1, Nodes: []proto.NodeStatus{
		{Name: "n0", Cores: 8, State: "up"}, {Name: "n1", Cores: 1 << 30, State: "up"}}}
	if err := m.apply(bad); err == nil || m.Cluster().NumNodes() != 1 {
		t.Fatalf("a delta adding a node of 1<<30 cores = %v with %d nodes; want an error and one node", err, m.Cluster().NumNodes())
	}
}

func TestParseState(t *testing.T) {
	leak.Check(t)
	for _, s := range []job.State{job.Queued, job.Running, job.DynQueued, job.Completed} {
		got, err := parseState(s.String())
		if err != nil || got != s {
			t.Errorf("parseState(%s) = %v, %v", s, got, err)
		}
	}
	if _, err := parseState("weird"); err == nil {
		t.Error("unknown state must error")
	}
}

// TestMirrorEpochs: the mirror is an honest core.ChangeTracker —
// queue-membership changes advance both epochs, dyn-only changes
// advance the state epoch alone.
func TestMirrorEpochs(t *testing.T) {
	leak.Check(t)
	var _ core.ChangeTracker = (*mirror)(nil)
	st := &proto.SchedState{
		NowMS:  1000,
		Serial: 7,
		Nodes:  []proto.NodeStatus{{Name: "n0", Cores: 8, State: "up"}},
		Queued: []proto.SchedJob{{ID: 1, User: "u", State: "queued", Cores: 4, WallSecs: 60}},
		Active: []proto.SchedJob{{ID: 2, User: "v", State: "running", Cores: 2, WallSecs: 120, Evolving: true}},
		Dyn:    []proto.SchedDynReq{{JobID: 2, Cores: 1, Seq: 0}},
	}
	m, err := newMirror(st)
	if err != nil {
		t.Fatal(err)
	}
	se, qe := m.StateEpoch(), m.QueueEpoch()
	if _, err := m.StartJob(m.QueuedJobs()[0]); err != nil {
		t.Fatal(err)
	}
	if m.StateEpoch() != se+1 || m.QueueEpoch() != qe+1 {
		t.Errorf("after start: epochs = %d/%d, want %d/%d", m.StateEpoch(), m.QueueEpoch(), se+1, qe+1)
	}
	if _, err := m.GrantDyn(m.DynRequests()[0]); err != nil {
		t.Fatal(err)
	}
	if m.StateEpoch() != se+2 || m.QueueEpoch() != qe+1 {
		t.Errorf("after grant: epochs = %d/%d, want %d/%d (dyn is state-class)", m.StateEpoch(), m.QueueEpoch(), se+2, qe+1)
	}
}

// TestCommitSurfacesServerError: a server that answers sched.commit
// with TError must fail the cycle, so the daemon's consecutive-failure
// backoff sees it. Decoding the reply into a SchedCommitResp alone
// turned that answer into "0 applied, 0 skipped".
func TestCommitSurfacesServerError(t *testing.T) {
	leak.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := proto.NewConn(nc)
		defer c.Close()
		if c.AcceptHandshake(proto.ModeAuto) != nil {
			return
		}
		if _, err := c.Recv(); err != nil {
			return
		}
		_ = c.Send(proto.TError, proto.ErrorResp{Error: "bad sched.commit: truncated"})
	}()
	d := New(ln.Addr().String(), core.New(core.Options{}, 0), time.Second)
	resp, err := d.commit(proto.SchedCommit{Serial: 1, Actions: []proto.SchedAction{{Kind: "start", JobID: 1}}})
	<-served
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("commit against a refusing server = %+v, %v; want the server's error", resp, err)
	}
}

// TestMirrorRejectsUnknownState: a job record in a state this build
// does not know must fail the cycle. It used to plan as queued.
func TestMirrorRejectsUnknownState(t *testing.T) {
	leak.Check(t)
	st := &proto.SchedState{
		Nodes:  []proto.NodeStatus{{Name: "n0", Cores: 8, State: "up"}},
		Queued: []proto.SchedJob{{ID: 1, User: "u", State: "suspended", Cores: 1, WallSecs: 60}},
	}
	if _, err := newMirror(st); err == nil || !strings.Contains(err.Error(), "suspended") {
		t.Fatalf("newMirror with an unknown state = %v, want an error naming it", err)
	}
	st.Queued[0].State = "queued"
	m, err := newMirror(st)
	if err != nil {
		t.Fatal(err)
	}
	bad := &proto.SchedDelta{Serial: 1, Jobs: []proto.SchedJob{{ID: 1, State: "suspended"}}}
	if err := m.apply(bad); err == nil {
		t.Fatal("a delta with an unknown state must fail the cycle")
	}
}

// TestCloseWithoutStart: Close on a daemon whose loop never ran must
// return (it used to wait for the loop's exit forever), hang up the
// sched link, and leave nothing behind.
func TestCloseWithoutStart(t *testing.T) {
	leak.Check(t)
	srv := serverd.New(serverd.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := New(srv.Addr(), core.New(core.Options{}, 0), time.Hour)
	if _, _, err := d.RunOnce(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Close()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close on a never-started daemon hangs")
	}
	if _, _, err := d.RunOnce(); err == nil {
		t.Error("RunOnce after Close must fail, not dial again")
	}
}

// TestServerCloseEndsSchedSessions: a daemon that is never closed (the
// benchmark's probes do that) must not keep Server.Close waiting on
// its session.
func TestServerCloseEndsSchedSessions(t *testing.T) {
	leak.Check(t)
	srv := serverd.New(serverd.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	d := New(srv.Addr(), core.New(core.Options{}, 0), time.Hour)
	for i := 0; i < 2; i++ {
		if _, _, err := d.RunOnce(); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Close()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close waits on an open sched session")
	}
	if _, _, err := d.RunOnce(); err == nil {
		t.Error("RunOnce against a closed server must fail")
	}
	d.Close()
}

// TestExternalSchedulerProtoV1: with the JSON codec pinned on both
// sides the session and its deltas work as under v2 — the second and
// later cycles update the mirror in place.
func TestExternalSchedulerProtoV1(t *testing.T) {
	leak.Check(t)
	srv := serverd.New(serverd.Options{ProtoMode: proto.ModeV1})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	momSet(t, srv, 1, 8)
	d := New(srv.Addr(), core.New(core.Options{}, 0), time.Hour)
	d.Proto = proto.ModeV1
	t.Cleanup(d.Close)
	var ids []int
	for i := 0; i < 3; i++ {
		id, err := srv.QSub(proto.JobSpec{Name: "v1", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:5ms"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var first *mirror
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range ids {
		for jobStateOf(srv, id) != "completed" {
			if time.Now().After(deadline) {
				t.Fatalf("job %d never completed", id)
			}
			if _, _, err := d.RunOnce(); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = d.m
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, _, err := d.RunOnce(); err != nil { // hears of the last completion
		t.Fatal(err)
	}
	if d.m != first {
		t.Error("the mirror was rebuilt: v1 pulls after the first should be deltas too")
	}
	if n := len(d.m.jobs); n != 0 {
		t.Errorf("%d jobs left in the mirror after all completed", n)
	}
}

func jobStateOf(srv *serverd.Server, id int) string {
	for _, j := range srv.QStat().Jobs {
		if j.ID == id {
			return j.State
		}
	}
	return ""
}

// TestIdlePollLeavesEpochs: with nothing happening on either side a
// pull is an empty delta and the mirror — the same one — reports the
// epochs it reported before, which is what lets core.Scheduler skip the
// iteration outright.
func TestIdlePollLeavesEpochs(t *testing.T) {
	leak.Check(t)
	srv, _ := externalClusterNoSched(t, 1, 8)
	run, err := srv.QSub(proto.JobSpec{Name: "long", User: "u", Cores: 8, WallSecs: 3600, Script: "sleep:1m"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.QSub(proto.JobSpec{Name: "waits", User: "u", Cores: 8, WallSecs: 3600, Script: "sleep:1m"}); err != nil {
		t.Fatal(err)
	}
	d := New(srv.Addr(), core.New(core.Options{}, 0), time.Hour)
	t.Cleanup(d.Close)
	for i := 0; i < 3; i++ { // full; delta confirming the start; settled
		if _, _, err := d.RunOnce(); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, srv, run, "running", 5*time.Second)
	m, epoch, qepoch := d.m, d.m.StateEpoch(), d.m.QueueEpoch()
	for i := 0; i < 5; i++ {
		if _, _, err := d.RunOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if d.m.StateEpoch() != epoch || d.m.QueueEpoch() != qepoch {
		t.Errorf("idle polls moved the epochs: %d/%d -> %d/%d", epoch, qepoch, d.m.StateEpoch(), d.m.QueueEpoch())
	}
	if d.m != m {
		t.Error("idle polls rebuilt the mirror")
	}
}

// TestDeltaApplyAllocsAreDeltaSized: applying a 100-job delta to a
// mirror of 10 000 jobs allocates for the 100, not for the 10 000 — no
// copy of the queue, no rebuilt index.
func TestDeltaApplyAllocsAreDeltaSized(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const depth, touched = 10000, 100
	st := &proto.SchedState{Serial: 1, Nodes: []proto.NodeStatus{{Name: "n0", Cores: 4096, State: "up"}}}
	for id := 1; id <= depth; id++ {
		st.Queued = append(st.Queued, proto.SchedJob{ID: id, Name: "j", User: "u", Group: "g", State: "queued", Cores: 1, WallSecs: 60})
	}
	m, err := newMirror(st)
	if err != nil {
		t.Fatal(err)
	}
	// Each delta starts 50 jobs from all over the queue, finishes the
	// previous delta's 50, and appends 50 new ones.
	next, serial := depth+1, uint64(1)
	var running []proto.SchedJob
	delta := func() *proto.SchedDelta {
		serial++
		d := &proto.SchedDelta{Serial: serial, Nodes: []proto.NodeStatus{{Name: "n0", Cores: 4096, Used: touched / 2, State: "up"}}}
		for i := range running {
			running[i].State = "completed"
		}
		d.Jobs = append(d.Jobs, running...)
		running = running[:0]
		queued := m.QueuedJobs()
		for i := 0; i < touched/2; i++ {
			j := *queued[(i*197)%len(queued)]
			running = append(running, proto.SchedJob{ID: int(j.ID), Name: "j", User: "u", Group: "g", State: "running", Cores: 1, WallSecs: 60, StartMS: 5})
		}
		d.Jobs = append(d.Jobs, running...)
		for i := 0; i < touched/2; i++ {
			d.Tail = append(d.Tail, proto.SchedJob{ID: next, Name: "j", User: "u", Group: "g", State: "queued", Cores: 1, WallSecs: 60})
			next++
		}
		return d
	}
	for i := 0; i < 3; i++ { // let the lists grow their spare capacity
		if err := m.apply(delta()); err != nil {
			t.Fatal(err)
		}
	}
	d := delta()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.apply(d); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n, a := len(m.QueuedJobs()), len(m.ActiveJobs()); n != depth || a != touched/2 {
		t.Fatalf("mirror holds %d queued and %d active, want %d and %d", n, a, depth, touched/2)
	}
	// One entry per new job, plus change; a copy of the queue alone
	// would be 80 kB in one allocation.
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if allocs > 3*touched || bytes > 32<<10 {
		t.Errorf("a %d-job delta on a %d-job mirror cost %d allocations, %d bytes; want at most %d and %d",
			touched, depth, allocs, bytes, 3*touched, 32<<10)
	}
}

// TestRetryPolicyFollowsInterval: the pause after a failed cycle starts
// at the polling interval. It used to start at the backoff package's
// 100 ms default whatever the interval, so a daemon polling every
// millisecond sat out 50–100 ms after any link loss.
func TestRetryPolicyFollowsInterval(t *testing.T) {
	d := New("127.0.0.1:1", core.New(core.Options{}, 0), time.Millisecond)
	pol, rng := d.retryPolicy(), backoff.NewRand("mauid")
	for attempt := 0; attempt < 12; attempt++ {
		limit := min(time.Millisecond<<attempt, 8*time.Millisecond)
		if got := pol.Delay(attempt, rng); got > limit || got < time.Millisecond/2 {
			t.Errorf("pause after failure %d = %v, want within [0.5ms, %v]", attempt+1, got, limit)
		}
	}
}

// TestHungServerFailsTheCycle: a server that accepts the sched link and
// then never answers costs a cycle its request timeout and its link, not
// the daemon.
func TestHungServerFailsTheCycle(t *testing.T) {
	leak.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	held := make(chan net.Conn, 4)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				close(held)
				return
			}
			held <- nc // open, never read, never answered
		}
	}()
	defer func() {
		ln.Close()
		for nc := range held {
			nc.Close()
		}
	}()
	d := New(ln.Addr().String(), core.New(core.Options{}, 0), time.Hour)
	d.Proto = proto.ModeV1 // no handshake: the hang is in the first pull
	d.timeout = 50 * time.Millisecond
	defer d.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := d.RunOnce()
		done <- err
	}()
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("cycle against a hung server = %v, want a timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a hung server wedged the cycle")
	}
	if d.link.Load() != nil {
		t.Error("the link to a hung server must be dropped")
	}
}
