package serverd

import (
	"context"
	"fmt"
	"math/rand"
	"repro/internal/testutil/leak"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/tm"
)

// TestLiveMiniESP runs a scaled-down dynamic-ESP-style workload on the
// real daemon stack in real time: a mix of rigid sleepers and evolving
// applications that request extra cores at ~16% of their runtime and
// retry once on rejection — the paper's §IV-B behaviour over actual
// sockets. Asserts full completion, at least one grant, at least one
// retry path exercised, and zero resource leakage.
func TestLiveMiniESP(t *testing.T) {
	leak.Check(t)
	if testing.Short() {
		t.Skip("real-time workload")
	}
	srv := liveCluster(t, 4, 8) // 32 cores

	const (
		rigidJobs    = 14
		evolvingJobs = 6
	)
	var grants, rejects atomic.Int32
	var wg sync.WaitGroup

	// Each evolving app: run ~16% of its runtime, request 4 cores,
	// retry at ~25% if rejected, finish early if granted.
	for i := 0; i < evolvingJobs; i++ {
		name := fmt.Sprintf("mini-esp-evolving-%d", i)
		runtime := 300 * time.Millisecond
		t.Cleanup(mom.RegisterGoApp(name, func(ctx context.Context, tmc *tm.Context) error {
			time.Sleep(runtime * 16 / 100)
			hosts, err := tmc.DynGet(4)
			if err != nil {
				if !tm.IsRejected(err) {
					return err
				}
				time.Sleep(runtime * 9 / 100)
				hosts, err = tmc.DynGet(4) // second chance (25% point)
			}
			if err == nil {
				grants.Add(1)
				defer func() { _ = tmc.DynFree(hosts) }()
				time.Sleep(runtime / 2) // accelerated tail
				return nil
			}
			rejects.Add(1)
			time.Sleep(runtime * 3 / 4) // full static tail
			return nil
		}))
		wg.Add(1)
		go func(name string, delay time.Duration) {
			defer wg.Done()
			time.Sleep(delay)
			_, err := srv.QSub(proto.JobSpec{
				Name: name, User: "user06", Cores: 6, WallSecs: 60,
				Script: "go:" + name, Evolving: true,
			})
			if err != nil {
				t.Errorf("qsub %s: %v", name, err)
			}
		}(name, time.Duration(i)*40*time.Millisecond)
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < rigidJobs; i++ {
		wg.Add(1)
		go func(i int, delay time.Duration, cores int, ms int) {
			defer wg.Done()
			time.Sleep(delay)
			_, err := srv.QSub(proto.JobSpec{
				Name: fmt.Sprintf("rigid-%d", i), User: fmt.Sprintf("user%02d", i%5),
				Cores: cores, WallSecs: 60,
				Script: fmt.Sprintf("sleep:%dms", ms),
			})
			if err != nil {
				t.Errorf("qsub rigid-%d: %v", i, err)
			}
		}(i, time.Duration(rng.Intn(300))*time.Millisecond, 2+rng.Intn(10), 50+rng.Intn(250))
	}
	wg.Wait()

	// Everything completes.
	waitFor(t, 30*time.Second, func() bool {
		st := srv.QStat()
		if len(st.Jobs) != rigidJobs+evolvingJobs {
			return false
		}
		for _, j := range st.Jobs {
			if j.State != "completed" {
				return false
			}
		}
		return true
	}, "mini-ESP workload completion")

	if grants.Load() == 0 {
		t.Error("no dynamic request was ever granted")
	}
	t.Logf("mini-ESP: %d grants, %d final rejections", grants.Load(), rejects.Load())

	// No leaked cores or stuck requests.
	st := srv.QStat()
	for _, n := range st.Nodes {
		if n.Used != 0 {
			t.Errorf("node %s leaked %d cores", n.Name, n.Used)
		}
	}
	// Metrics recorded every job with sane timelines.
	recs := srv.Recorder().Jobs()
	if len(recs) != rigidJobs+evolvingJobs {
		t.Errorf("metrics rows = %d", len(recs))
	}
	for _, r := range recs {
		if r.Start < r.Submit || r.End < r.Start {
			t.Errorf("job %v timeline %v/%v/%v", r.ID, r.Submit, r.Start, r.End)
		}
	}
}
