package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestIterateAllocs bounds the allocations of one scheduling iteration
// on a small steady-state fixture (running jobs, blocked queue, no
// dynamic requests). The iteration reuses the scheduler's scratch
// profiles, so the remaining allocations are the RM snapshot copies,
// the priority ordering, and the result — all O(queue), none O(queue ×
// requests).
func TestIterateAllocs(t *testing.T) {
	rm := newTestRM(2, 8)
	run := &job.Job{ID: 1, Cred: job.Credentials{User: "r"}, Cores: 8, Walltime: sim.Hour}
	rm.addRunning(run)
	for i := 2; i <= 4; i++ {
		// 16-core jobs cannot start on the 8 idle cores: the queue
		// stays unchanged, so every iteration does identical work.
		rm.queued = append(rm.queued, mkQueued(i, "u", 16, sim.Hour, sim.Time(i)))
	}
	s := New(Options{}, 0)
	s.Iterate(sim.Minute, rm) // warm scratch buffers
	allocs := testing.AllocsPerRun(50, func() {
		s.Iterate(sim.Minute, rm)
	})
	const maxAllocs = 40
	if allocs > maxAllocs {
		t.Errorf("one Iterate allocates %.0f times, want <= %d", allocs, maxAllocs)
	}
}

// TestIterateAllocsIdleTick100k guards the event-driven requeue at
// scale: once a 100k-job iteration has settled, a tick with an
// unchanged state epoch must not allocate at all — the skip path is a
// few field comparisons and a reset of the scheduler-owned result.
func TestIterateAllocsIdleTick100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-job fixture")
	}
	s, rm := setupLargeQueue(100000, 4096)
	s.Iterate(sim.Minute, rm) // settle and warm the result
	now := 2 * sim.Minute
	allocs := testing.AllocsPerRun(100, func() {
		now += sim.Second // stays far below the earliest walltime release
		s.Iterate(now, rm)
	})
	if allocs > 0 {
		t.Errorf("idle tick allocates %.0f times, want 0", allocs)
	}
}

// TestIterateAllocsBusyTick100k pins the steady-state allocation
// budget of a busy 100k-job tick: each round submits one job (forcing
// a full table refill, re-sort and final planning walk) and the
// iteration must stay within a constant budget — the per-job work all
// runs in reused scratch (SoA table, segment arenas, the owned result).
func TestIterateAllocsBusyTick100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-job fixture")
	}
	s, rm := setupLargeQueue(100000, 4096)
	s.Iterate(sim.Minute, rm) // settle: fills arenas and the result
	now := 2 * sim.Minute
	id := 1000000
	allocs := testing.AllocsPerRun(5, func() {
		now += sim.Second
		rm.queued = append(rm.queued, mkQueued(id, "u99", 32, 2*sim.Hour, now))
		rm.bumpQueue()
		id++
		s.Iterate(now, rm)
	})
	// Budget: the submitted job itself, the queue append, and bounded
	// bookkeeping — nothing proportional to the 100k-job table.
	const maxAllocs = 24
	if allocs > maxAllocs {
		t.Errorf("busy tick allocates %.0f times, want <= %d", allocs, maxAllocs)
	}
}

// TestTraceAllocsNilSink guards the cost of the lifecycle's trace sink:
// a cycle through every transition a dynamic job takes allocates no
// more with the sink off than it did before the sink existed (the
// placements' allocation slices and the pending request's bookkeeping),
// and no more with a sink attached while the log's chunks have room.
func TestTraceAllocsNilSink(t *testing.T) {
	for _, sink := range []*trace.Log{nil, {}} {
		l := NewLifecycle(cluster.New(4, 8), nil, nil)
		l.Trace = sink
		j := &job.Job{}
		r := &job.DynRequest{}
		var now sim.Time
		cycle := func() {
			now += sim.Minute
			*j = job.Job{Name: "L.1", Cred: job.Credentials{User: "u"}, Cores: 8, Walltime: sim.Hour}
			l.Submit(j, now)
			if _, err := l.Start(j, 0, 0, now, nil); err != nil {
				t.Fatal(err)
			}
			*r = job.DynRequest{Job: j, Cores: 4, IssuedAt: now}
			if err := l.QueueDyn(r); err != nil {
				t.Fatal(err)
			}
			l.Reject(r, "no", now)
			*r = job.DynRequest{Job: j, Cores: 4, IssuedAt: now}
			if err := l.QueueDyn(r); err != nil {
				t.Fatal(err)
			}
			alloc, err := l.Grant(r, now)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Release(j, alloc, now); err != nil {
				t.Fatal(err)
			}
			l.Complete(j, now)
		}
		const maxAllocs = 5 // measured before the sink was added
		if allocs := testing.AllocsPerRun(100, cycle); allocs > maxAllocs {
			t.Errorf("sink %v: one lifecycle cycle allocates %.0f times, want <= %d", sink != nil, allocs, maxAllocs)
		}
	}
}
