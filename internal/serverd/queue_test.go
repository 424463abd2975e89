package serverd

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/proto"
	"repro/internal/testutil/leak"
)

// TestQueueIndexKeepsOrder: jobs leave the queue from anywhere in it
// without disturbing the submission order of the rest, through any
// number of compactions, and the snapshot lists the same queue.
func TestQueueIndexKeepsOrder(t *testing.T) {
	srv := New(Options{})
	srv.start = time.Now() // the daemon is never Started: no moms, nothing runs
	rng := rand.New(rand.NewSource(1))
	var want []int
	check := func(when string) {
		t.Helper()
		srv.mu.Lock()
		defer srv.mu.Unlock()
		got := srv.rm.QueuedJobs()
		if len(got) != len(want) {
			t.Fatalf("%s: %d queued, want %d", when, len(got), len(want))
		}
		for i, j := range got {
			if int(j.ID) != want[i] {
				t.Fatalf("%s: queue[%d] = %v, want job %d", when, i, j.ID, want[i])
			}
		}
		if st := srv.snapshotLocked(); len(st.Queued) != len(want) || (len(want) > 0 && st.Queued[0].ID != want[0]) {
			t.Fatalf("%s: snapshot lists %d queued jobs", when, len(st.Queued))
		}
	}
	for round := 0; round < 40; round++ {
		for n := rng.Intn(60); n > 0; n-- {
			id, err := srv.QSub(proto.JobSpec{Name: "q", User: "u", Cores: 1, WallSecs: 60})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, id)
		}
		check("after submissions")
		// Cancel from the front (what a drain does), and from anywhere.
		for n := rng.Intn(50); n > 0 && len(want) > 0; n-- {
			i := 0
			if rng.Intn(3) == 0 {
				i = rng.Intn(len(want))
			}
			srv.QDel(want[i])
			want = append(want[:i], want[i+1:]...)
		}
		check("after cancellations")
	}
}

// TestFinishedJobsDropTheirTimers: the records of finished jobs stay in
// the server for qstat; their stopped walltime timers must not stay
// with them.
func TestFinishedJobsDropTheirTimers(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	done, err := srv.QSub(proto.JobSpec{Name: "done", User: "u", Cores: 4, WallSecs: 60, Script: "sleep:10ms"})
	if err != nil {
		t.Fatal(err)
	}
	killed, err := srv.QSub(proto.JobSpec{Name: "killed", User: "u", Cores: 4, WallSecs: 60, Script: "sleep:1h"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return jobState(srv, done) == job.Completed.String() && jobState(srv, killed) == job.Running.String()
	}, "one job done, one running")
	srv.mu.Lock()
	armed := srv.jobs[killed].killTimer != nil
	srv.mu.Unlock()
	if !armed {
		t.Fatal("a running job must have its walltime timer")
	}
	srv.QDel(killed)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, id := range []int{done, killed} {
		if ji := srv.jobs[id]; ji.killTimer != nil || ji.negTimer != nil {
			t.Errorf("job %d (%s) still holds a timer", id, ji.j.State)
		}
	}
}
