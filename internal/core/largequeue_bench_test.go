package core

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/fairness"
	"repro/internal/job"
	"repro/internal/sim"
)

// setupLargeQueue builds a production-scale iteration state: a 512-node
// (4096-core) cluster with 500 running jobs whose staggered walltime
// ends give the availability profile hundreds of boundaries, nQueued
// static jobs waiting, and 100 pending dynamic requests from evolving
// jobs. Static users carry a tight per-interval delay budget, so the
// iteration grants the zero-delay requests and walks the full
// delay-measurement path for the rest — the steady state of a loaded
// system running Algorithm 2.
func setupLargeQueue(nQueued, nodes int) (*Scheduler, *trackedRM) {
	rm := &trackedRM{testRM: *newTestRM(nodes, 8)}
	id := 1
	nRunning := nodes * 25 / 32 // 400 at the historical 512-node size
	for i := 0; i < nRunning; i++ {
		j := &job.Job{
			ID: job.ID(id), Cred: job.Credentials{User: fmt.Sprintf("r%02d", i%16)},
			Cores: 8, Walltime: sim.Hour + sim.Duration(i)*sim.Minute,
		}
		rm.addRunning(j)
		id++
	}
	evolving := make([]*job.Job, 0, 100)
	for i := 0; i < 100; i++ {
		// The first few evolving jobs end before any blocked job could
		// start, so their grants measure zero delay and pass the
		// fairness gate — the iteration sees both grant and reject
		// outcomes.
		wall := 12 * sim.Hour
		if i < 8 {
			wall = 30 * sim.Minute
		}
		j := &job.Job{
			ID: job.ID(id), Cred: job.Credentials{User: fmt.Sprintf("e%02d", i%10)},
			Cores: 4, Class: job.Evolving, Walltime: wall,
		}
		rm.addRunning(j)
		evolving = append(evolving, j)
		id++
	}
	for i := 0; i < nQueued; i++ {
		wall := 2*sim.Hour + sim.Duration(i%7)*30*sim.Minute
		j := mkQueued(id, fmt.Sprintf("u%02d", i%20), 32, wall, sim.Time(i)*sim.Second)
		rm.queued = append(rm.queued, j)
		rm.bumpQueue()
		id++
	}
	for _, ej := range evolving {
		rm.dyn = append(rm.dyn, &job.DynRequest{Job: ej, Cores: 4, IssuedAt: sim.Minute})
		ej.State = job.DynQueued
		rm.bump()
	}

	cfg := config.Default()
	f := fairness.NewConfig(fairness.TargetDelay)
	f.Interval = sim.Hour
	for u := 0; u < 20; u++ {
		f.Set(fairness.KindUser, fmt.Sprintf("u%02d", u), fairness.Limits{
			PermSet: true, Perm: true, TargetDelayTime: sim.Millisecond,
		})
	}
	cfg.Fairness = f
	return New(Options{Config: cfg}, 0), rm
}

// BenchmarkIterateLargeQueue measures one full extended Maui iteration
// (Algorithm 2) at production queue depths. The decision counts are
// reported as metrics so before/after runs can be checked for
// identical scheduling behavior.
func BenchmarkIterateLargeQueue(b *testing.B) {
	for _, c := range []struct {
		name  string
		n     int
		nodes int
	}{
		{"queue-1k", 1000, 512}, {"queue-5k", 5000, 512}, {"queue-10k", 10000, 512},
		{"queue-50k", 50000, 4096}, {"queue-100k", 100000, 4096},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var granted, rejected, started int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, rm := setupLargeQueue(c.n, c.nodes)
				b.StartTimer()
				res := s.Iterate(sim.Minute, rm)
				granted, rejected = 0, 0
				for _, d := range res.DynDecisions {
					if d.Granted {
						granted++
					} else {
						rejected++
					}
				}
				started = len(res.Started) + len(res.Backfilled)
			}
			b.ReportMetric(float64(granted), "granted")
			b.ReportMetric(float64(rejected), "rejected")
			b.ReportMetric(float64(started), "started")
		})
	}
}

// BenchmarkIterateIdleTick measures the event-driven requeue: the
// steady-state tick of a loaded 100k-job system in which nothing
// changed since the last iteration. With a ChangeTracker RM the
// scheduler recognizes the frozen state and the tick costs a handful
// of comparisons — no queue scan, no sort, no planning.
func BenchmarkIterateIdleTick(b *testing.B) {
	s, rm := setupLargeQueue(100000, 4096)
	s.Iterate(sim.Minute, rm) // settle: starts + dyn decisions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Iterate(2*sim.Minute, rm)
	}
}
