package core

import (
	"testing"

	"repro/internal/job"
	"repro/internal/sim"
)

func TestQueueLog(t *testing.T) {
	var l QueueLog
	l.Reset(7)
	if got, ok := l.Since(7); !ok || len(got) != 0 || l.Epoch() != 7 {
		t.Fatalf("fresh log at 7: Since(7) = %v, %v at epoch %d", got, ok, l.Epoch())
	}
	a, b := &job.Job{ID: 1}, &job.Job{ID: 2}
	l.Bump(a)
	l.Bump(b)
	l.Bump(a)
	if got, ok := l.Since(8); !ok || len(got) != 2 || got[0] != b || got[1] != a {
		t.Errorf("Since(8) = %v, %v, want the two changes after epoch 8", got, ok)
	}
	if _, ok := l.Since(6); ok {
		t.Error("Since before the log's start must report false")
	}
	if _, ok := l.Since(11); ok {
		t.Error("Since a future epoch must report false")
	}
	// A change nobody can name cuts the log: readers from before it
	// must be told to start over.
	l.Bump(nil)
	if _, ok := l.Since(10); ok || l.Epoch() != 11 {
		t.Errorf("after an unnamed change: Since(10) ok = %v at epoch %d, want false at 11", ok, l.Epoch())
	}
	if got, ok := l.Since(11); !ok || len(got) != 0 {
		t.Errorf("Since(now) = %v, %v, want nothing, true", got, ok)
	}
	// The log is bounded: a reader further back than it reaches is told.
	for i := 0; i < 5*queueLogKeep; i++ {
		l.Bump(a)
	}
	if _, ok := l.Since(11); ok {
		t.Error("a trimmed log must not claim to reach back to epoch 11")
	}
	if got, ok := l.Since(l.Epoch() - queueLogKeep); !ok || len(got) != queueLogKeep {
		t.Errorf("the last %d changes must stay readable, got %d, %v", queueLogKeep, len(got), ok)
	}
}

// TestTableFollowsQueue pins that the kept job table is kept: the starts
// of its own walk never cost a refill, a queue change the RM's log names
// is patched in, and only a change nobody names — no log, or one that
// does not reach — falls back to the fill.
func TestTableFollowsQueue(t *testing.T) {
	for _, logged := range []bool{false, true} {
		track := &trackedRM{testRM: *newTestRM(2, 8)}
		var rm ResourceManager = track
		var lrm *loggedRM
		if logged {
			lrm = &loggedRM{trackedRM: track}
			rm = lrm
		}
		for i := 1; i <= 200; i++ {
			j := mkQueued(i, "u", 4, sim.Hour, sim.Time(i))
			track.queued = append(track.queued, j)
			track.bumpQueueFor(j)
		}
		s := New(Options{}, 0)
		iterate := func(now sim.Time) *IterationResult {
			track.now = now
			return s.Iterate(now, rm)
		}
		if res := iterate(sim.Minute); len(res.Started) != 4 || s.table.fills != 1 || s.table.len() != 196 {
			t.Fatalf("logged=%v: first iteration started %d jobs, %d fills, %d rows left", logged, len(res.Started), s.table.fills, s.table.len())
		}
		// A completion: the next iteration starts the next job in line
		// off the table it kept.
		done := track.active[0]
		track.cl.Release(done.ID)
		track.active = without(track.active, done)
		done.State = job.Completed
		track.bump()
		if res := iterate(2 * sim.Minute); len(res.Started) != 1 || res.Started[0].ID != 5 || s.table.fills != 1 || s.table.repairs != 0 {
			t.Fatalf("logged=%v: after a completion: started %v, fills %d, repairs %d; want job 5 off the kept table",
				logged, idsOf(res.Started), s.table.fills, s.table.repairs)
		}
		// A submission and a cancellation from outside.
		sub := mkQueued(500, "u", 4, sim.Hour, 3*sim.Minute)
		track.queued = append(track.queued, sub)
		track.bumpQueueFor(sub)
		gone := track.queued[10]
		track.queued = without(track.queued, gone)
		gone.State = job.Cancelled
		track.bumpQueueFor(gone)
		iterate(3 * sim.Minute)
		wantFills, wantRepairs := uint64(2), uint64(0)
		if logged {
			wantFills, wantRepairs = 1, 1
		}
		if s.table.fills != wantFills || s.table.repairs != wantRepairs || s.table.len() != 195 {
			t.Fatalf("logged=%v: after outside changes: fills %d, repairs %d, rows %d; want %d, %d, 195",
				logged, s.table.fills, s.table.repairs, s.table.len(), wantFills, wantRepairs)
		}
		if logged {
			// A log that no longer reaches the table's epoch: refill.
			lrm.overflow = true
			again := mkQueued(501, "u", 4, sim.Hour, 4*sim.Minute)
			track.queued = append(track.queued, again)
			track.bumpQueueFor(again)
			if iterate(4 * sim.Minute); s.table.fills != 2 || s.table.len() != 196 {
				t.Fatalf("after a log overflow: fills %d, rows %d; want the fallback fill", s.table.fills, s.table.len())
			}
		}
		checkTable(t, 0, s, rm, 4*sim.Minute)
	}
}
