package mauid

import (
	"context"
	"fmt"
	"repro/internal/testutil/leak"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/proto/chaos"
	"repro/internal/serverd"
	"repro/internal/tm"
)

// TestChaosSchedulerSurvivesServerOutage: the mauid talks to the
// server through a fault-injecting proxy. A burst of refused
// connections makes several iterations fail; the daemon must back off
// and resume scheduling once the path heals, without being restarted.
func TestChaosSchedulerSurvivesServerOutage(t *testing.T) {
	leak.Check(t)
	srv, _ := externalClusterNoSched(t, 1, 8)
	p := chaos.New(srv.Addr(), chaos.Options{})
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	d := New(p.Addr(), core.New(core.Options{}, 0), 15*time.Millisecond)
	d.Start()
	t.Cleanup(d.Close)

	id, err := srv.QSub(proto.JobSpec{
		Name: "pre", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:20ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, id, "completed", 10*time.Second)

	// Outage: the sched link is cut and the next several scheduler
	// connections die at accept.
	p.RefuseNext(6)
	p.SeverAll()
	id2, err := srv.QSub(proto.JobSpec{
		Name: "post", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:20ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, id2, "completed", 15*time.Second)
	if s := p.Stats(); s.Refused != 6 {
		t.Errorf("stats = %+v, want Refused=6", s)
	}
}

// TestChaosSchedulerRestart: killing the mauid and starting a fresh
// one must resume scheduling — the daemon is stateless by design, so
// a queued job just waits for the replacement.
func TestChaosSchedulerRestart(t *testing.T) {
	leak.Check(t)
	srv, d := externalCluster(t, 1, 8)
	id, err := srv.QSub(proto.JobSpec{
		Name: "first", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:20ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, id, "completed", 10*time.Second)

	d.Close()
	id2, err := srv.QSub(proto.JobSpec{
		Name: "stranded", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:20ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	// No scheduler: the job must still be queued after a few would-be
	// iterations.
	time.Sleep(100 * time.Millisecond)
	for _, j := range srv.QStat().Jobs {
		if j.ID == id2 && j.State != "queued" {
			t.Fatalf("job scheduled with no scheduler running (state %s)", j.State)
		}
	}

	d2 := New(srv.Addr(), core.New(core.Options{}, 0), 15*time.Millisecond)
	d2.Start()
	t.Cleanup(d2.Close)
	waitState(t, srv, id2, "completed", 10*time.Second)
}

// externalClusterNoSched is externalCluster without the mauid, for
// tests that wire their own daemon (e.g. through a chaos proxy).
func externalClusterNoSched(t *testing.T, n, cores int) (*serverd.Server, []string) {
	t.Helper()
	srv := serverd.New(serverd.Options{Sched: nil})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	names := momSet(t, srv, n, cores)
	return srv, names
}

// momSet starts n moms against srv and waits for registration.
func momSet(t *testing.T, srv *serverd.Server, n, cores int) []string {
	t.Helper()
	names := make([]string, n)
	for i := 0; i < n; i++ {
		m := mom.New(fmt.Sprintf("cnode%d", i), cores)
		if err := m.Start("127.0.0.1:0", srv.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		names[i] = m.Name()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(srv.QStat().Nodes) >= n {
			return names
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("moms never registered")
	return nil
}

// TestChaosSchedLinkSevered: the one link mauid keeps to the server is
// cut again and again — every connection through the proxy is severed
// after a seeded delay of at most 8 ms, so cuts land inside pulls,
// between pull and commit, and inside commits whose fate mauid then
// cannot know — and, half way, blackholed. Every time mauid must drop
// the link, dial a new one, resync from a full snapshot and carry on
// without replaying anything: each job starts exactly once and all of
// them finish.
func TestChaosSchedLinkSevered(t *testing.T) {
	leak.Check(t)
	srv, _ := externalClusterNoSched(t, 2, 8)
	var mu sync.Mutex
	starts := map[int]int{} // application starts per job id, guarded by mu
	t.Cleanup(mom.RegisterGoApp("chaos-sched-link", func(_ context.Context, tmc *tm.Context) error {
		mu.Lock()
		starts[tmc.JobID]++
		mu.Unlock()
		time.Sleep(10 * time.Millisecond) // long enough a run for many cuts
		return nil
	}))
	p := chaos.New(srv.Addr(), chaos.Options{Seed: 7, FailRate: 1, MaxDelay: 8 * time.Millisecond})
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	d := New(p.Addr(), core.New(core.Options{}, 0), 2*time.Millisecond)
	d.Start()
	t.Cleanup(d.Close)

	const n = 120
	ids := make([]int, n)
	for i := range ids {
		id, err := srv.QSub(proto.JobSpec{
			Name: "c", User: fmt.Sprintf("u%d", i%7), Cores: 1 + i%4, WallSecs: 60, Script: "go:chaos-sched-link",
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	completed := func() int {
		done := 0
		for _, j := range srv.QStat().Jobs {
			if j.State == "completed" {
				done++
			}
		}
		return done
	}
	deadline := time.Now().Add(60 * time.Second)
	hung := false
	for completed() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs completed; proxy stats %+v", completed(), n, p.Stats())
		}
		if !hung && completed() >= n/2 {
			// A hung server: the next links swallow whatever is sent
			// and answer nothing, until they too are cut.
			hung = true
			p.Blackhole(true)
			p.SeverAll()
			for p.Stats().Blackholed == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond) // mauid is backing off; it will dial
			}
			time.Sleep(10 * time.Millisecond) // let it sit in the unanswered pull
			p.Blackhole(false)
			p.SeverAll()
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		if n := starts[id]; n != 1 {
			t.Errorf("job %d started %d times", id, n)
		}
	}
	if s := p.Stats(); s.Severed < 5 || s.Blackholed == 0 {
		t.Errorf("the link was hardly disturbed: %+v", s)
	}
}
