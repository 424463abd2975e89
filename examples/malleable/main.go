// Malleable & fault-tolerance demo: the two future-work extensions of
// the paper working together. A malleable analysis job shares the
// cluster with an evolving solver; the scheduler shrinks the malleable
// job to serve the solver's tm_dynget, grows it back afterwards, and
// when a node fails the fault-aware solver obtains a spare node
// dynamically instead of dying.
//
//	go run ./examples/malleable
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ftSolver is an evolving app that also survives node failures by
// requesting replacement resources.
type ftSolver struct {
	rms.EvolvingApp
}

func (a *ftSolver) OnNodeFailure(s *rms.Server, j *job.Job, lost int, now sim.Time) bool {
	fmt.Printf("%s [solver] lost %d cores to a node failure — requesting spares\n",
		sim.FormatTime(now), lost)
	_ = s.RequestDyn(j, lost)
	return true // keep running (degraded until the spare arrives)
}

func main() {
	eng := sim.NewEngine()
	cl := cluster.New(5, 8)
	sc := config.Default()
	sc.Fairness = fairness.NewConfig(fairness.None)
	sched := core.New(core.Options{Config: sc, Malleable: true}, 0)
	rec := metrics.NewRecorder(cl.TotalCores())
	srv := rms.NewServer(eng, cl, sched, rec)
	tr := &trace.Log{}
	srv.Trace = tr

	// The malleable analysis job: it may be shrunk to 8 cores when
	// someone needs resources, and grown back to 16 afterwards.
	analysis := &job.Job{
		Name: "analysis", Cred: job.Credentials{User: "ana"}, Class: job.Malleable,
		Cores: 16, MinCores: 8, MaxCores: 16, Walltime: 2 * sim.Hour,
	}
	srv.Submit(analysis, &rms.MalleableWorkApp{Work: 16 * 2400}) // 40 min at 16

	// The evolving solver: 16 cores, asks for 8 more at 16% of SET.
	solver := &job.Job{
		Name: "solver", Cred: job.Credentials{User: "cfd"}, Class: job.Evolving,
		Cores: 16, Walltime: 2 * sim.Hour,
	}
	app := &ftSolver{EvolvingApp: rms.EvolvingApp{
		SET: 50 * sim.Minute, DET: 35 * sim.Minute,
		ExtraCores: 8, AttemptFracs: rms.DefaultAttemptFracs(),
	}}
	srv.Submit(solver, app)

	// A node fails 20 minutes in.
	eng.At(20*sim.Minute, "node failure", func(now sim.Time) {
		id := cl.AllocOf(solver.ID)[0].NodeID
		fmt.Printf("%s [cluster] node%d fails\n", sim.FormatTime(now), id)
		srv.FailNode(id)
	})

	srv.Run(0)

	fmt.Println()
	for _, r := range rec.Jobs() {
		fmt.Printf("%-9s finished at %s on %d cores (dyn granted: %v)\n",
			r.Type, sim.FormatTime(r.End), r.Cores, r.DynGranted)
	}
	fmt.Println("\nevent log:")
	for _, e := range tr.Filter(trace.Shrink, trace.Grow, trace.DynGrant, trace.NodeDown) {
		fmt.Printf("  %s %-8s %-9s %d cores %s\n",
			sim.FormatTime(e.At), e.Kind, e.Job, e.Cores, e.Note)
	}
	fmt.Println("\nschedule:")
	fmt.Print(tr.Gantt(60))
}
