package serverd

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/rms"
	"repro/internal/testutil/leak"
)

// TestDispatchRollbackAdvancesEpochs pins the epoch invariant of
// (*serverRM).StartJob: the dispatch-failure rollback is a
// second round of mutations after the dispatch bump, so it must carry
// its own queue-class bump. Under the epoch protocol two observations
// with equal epochs must describe identical state; without the
// rollback bump the post-rollback queue would share an epoch with the
// post-dispatch state, and any epoch-keyed consumer — the embedded
// scheduler's skip/order caches, an external scheduler diffing the
// snapshot serial — could serve a plan for the wrong queue.
func TestDispatchRollbackAdvancesEpochs(t *testing.T) {
	leak.Check(t)
	srv := New(Options{Sched: core.New(core.Options{}, 0)})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	// One registered node whose mom link is already dead, so the
	// RunJob dispatch fails after the allocation succeeded.
	local, remote := net.Pipe()
	remote.Close()
	defer local.Close()
	onLoop(t, srv, func() {
		n := srv.rm.Cluster().AddNode("deadmom", 8)
		ni := &nodeInfo{node: n, addr: "dead:0", conn: proto.NewConn(local)}
		srv.nodes["deadmom"] = ni
		srv.nodeByID[n.ID] = ni
	})

	id, err := srv.QSub(proto.JobSpec{Name: "rollback", User: "u", Cores: 4, WallSecs: 60})
	if err != nil {
		t.Fatal(err)
	}

	// The dispatch and everything read of it run on the loop, between
	// two of its events; the checks run here.
	var (
		startErr       error
		state          job.State
		q              []*job.Job
		j              *job.Job
		active, used   int
		e0, q0, e1, q1 uint64
	)
	onLoop(t, srv, func() {
		rm := &srv.rm
		j = srv.jobs[id].j
		e0, q0 = rm.StateEpoch(), rm.QueueEpoch()
		_, startErr = rm.StartJob(j)
		state, q = j.State, append(q, rm.QueuedJobs()...)
		active, used = len(rm.ActiveJobs()), rm.Cluster().UsedCores()
		e1, q1 = rm.StateEpoch(), rm.QueueEpoch()
	})
	if startErr == nil {
		t.Fatal("dispatch over a dead mom link must fail")
	}
	if state != job.Queued || len(q) != 1 || q[0] != j || active != 0 {
		t.Fatalf("rollback incomplete: state=%v queued=%d active=%d",
			state, len(q), active)
	}
	if used != 0 {
		t.Fatalf("rollback leaked %d cores", used)
	}
	// Two mutation rounds (dispatch, rollback) → at least two bumps of
	// each epoch. One bump would mean the rollback mutated the queue
	// behind an unchanged epoch.
	if e1 < e0+2 {
		t.Errorf("StateEpoch advanced %d→%d; the rollback must bump again", e0, e1)
	}
	if q1 < q0+2 {
		t.Errorf("QueueEpoch advanced %d→%d; the rollback must bump again", q0, q1)
	}
}

// TestSubmitAfterIdleTicksIsScheduled is the differential for QSub's
// bump class. After the first job starts, idle poll ticks run against
// an unchanged epoch: canSkip short-circuits and the scheduler's
// sorted-order cache holds an empty queue. A submit that bumped only
// the state epoch would defeat the skip but reuse the stale empty
// order — the new job would never be scheduled. The queue-class bump
// forces the rebuild.
func TestSubmitAfterIdleTicksIsScheduled(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	id1, err := srv.QSub(proto.JobSpec{
		Name: "first", User: "u", Cores: 2, WallSecs: 600, Script: "sleep:10m",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id1) == "running" }, "first job start")
	// Let several idle poll ticks hit the frozen-epoch fast path with
	// the now-empty queue cached.
	time.Sleep(150 * time.Millisecond)
	id2, err := srv.QSub(proto.JobSpec{
		Name: "second", User: "u", Cores: 2, WallSecs: 60, Script: "sleep:50ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id2) == "completed" }, "second job after idle ticks")
}

// TestRequeueAfterIdleTicksIsRescheduled is the differential for the
// node-down requeue path (failNode → Preempt): the preempted
// job re-enters the queue after idle ticks cached an empty sorted
// order, so Preempt must advance the queue epoch or the requeued job
// is invisible to every later iteration and never restarts.
func TestRequeueAfterIdleTicksIsRescheduled(t *testing.T) {
	leak.Check(t)
	srv, moms := failoverCluster(t, 2, 8,
		Options{HeartbeatInterval: 25 * time.Millisecond, FailurePolicy: rms.FailRequeue},
		func(m *mom.Mom) { m.HeartbeatInterval = 10 * time.Millisecond })
	id, err := srv.QSub(proto.JobSpec{
		Name: "lazarus", User: "u", Cores: 8, WallSecs: 600, Script: "sleep:250ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id) == "running" }, "job start")
	// A short job on the surviving node whose completion drives a full
	// iteration after lazarus started: that iteration caches the empty
	// queue's sorted order against the current queue epoch, which is
	// exactly the cache a queue-blind requeue would poison.
	id2, err := srv.QSub(proto.JobSpec{
		Name: "warmup", User: "u", Cores: 2, WallSecs: 60, Script: "sleep:30ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return jobState(srv, id2) == "completed" }, "warmup completion")
	// Idle ticks with lazarus running: the empty order cache is warm.
	time.Sleep(150 * time.Millisecond)
	first := msNodeOf(t, srv, id)
	momByName(t, moms, first).Close()
	waitFor(t, 10*time.Second, func() bool { return jobState(srv, id) == "completed" }, "requeued job completion")
	second := msNodeOf(t, srv, id)
	if second == first {
		t.Errorf("job restarted on the dead node %s", first)
	}
}
