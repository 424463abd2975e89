package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/esp"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Full-size input of sim_esp. The issue sized it at Repeat=100 on
// 12 000 cores (22 802 jobs, ≈14 s); two fifths of both keeps the
// jobs-per-core ratio and fits four or five rounds into one run.
const (
	simRepeat = 40
	simCores  = 4800
)

// simPins are the work counts of one sim_esp round at the default seed
// and full size, taken at the commit that added the benchmark. The
// simulator is deterministic, so any drift is a behaviour change.
var simPins = map[string]float64{
	"sim.jobs":            9122,
	"core.iterations":     18989,
	"sim.events":          39990,
	"core.grant_attempts": 2807,
	"core.grants":         2727,
}

func simDef() *workloadDef {
	return &workloadDef{
		name: "sim_esp",
		shape: func(rc *runCtx) shape {
			nodes, per := experiments.Topology(rc.n(simCores, 120))
			return shape{moms: nodes, cores: per, depth: 228*rc.n(simRepeat, 1) + 2, users: 10, hosts: nodes / 2,
				config: func() (*config.SchedConfig, error) { return experiments.StandardConfigs()[2].SchedConfig(), nil }}
		},
		setup: setupSim,
	}
}

// simESP is experiments.RunESP taken apart at its public seams, so
// generation and submission are set-up, Server.Run is the measured
// window, and each of the three can carry a span.
type simESP struct {
	rc    *runCtx
	eng   *sim.Engine
	srv   *rms.Server
	sched *core.Scheduler
	rec   *metrics.Recorder
	jobs  int
	// pinned marks a full-size round at the default seed, whose work
	// counts must equal simPins.
	pinned bool

	attempts, grants int
	iterAt           []time.Time // wall instant of every scheduler iteration
	doneAt           []int       // jobs completed by then
}

func setupSim(rc *runCtx) (instance, error) {
	w, err := newSimESP(rc, rc.n(simRepeat, 1), rc.n(simCores, 120))
	if err != nil {
		return nil, err
	}
	w.pinned = rc.seed == 1 && rc.scale == 1
	return w, nil
}

// newSimESP builds the simulator stack and submits a generated ESP mix
// of repeat × 228 + 2 jobs sized to cores.
func newSimESP(rc *runCtx, repeat, cores int) (*simESP, error) {
	cfg := experiments.StandardConfigs()[2] // Dyn-500
	if cfg.Name != "Dyn-500" {
		return nil, fmt.Errorf("sim_esp: expected the Dyn-500 configuration, got %s", cfg.Name)
	}
	opts := esp.DefaultOpts()
	opts.Seed = rc.seed
	opts.Repeat = repeat
	opts.Dynamic = cfg.Dynamic
	nodes, perNode := experiments.Topology(cores)
	opts.TotalCores = nodes * perNode

	w := &simESP{rc: rc, eng: sim.NewEngine()}
	cl := cluster.New(nodes, perNode)
	w.sched = core.New(core.Options{Config: cfg.SchedConfig(), StrictSystemPriority: true}, 0)
	w.rec = metrics.NewRecorder(cl.TotalCores())
	w.srv = rms.NewServer(w.eng, cl, w.sched, w.rec)
	w.srv.Trace = &trace.Log{} // RunESP records the schedule; so does the research path measured here
	w.srv.OnIteration = func(ir *core.IterationResult) {
		for _, d := range ir.DynDecisions {
			w.attempts++
			if d.Granted {
				w.grants++
			}
		}
		w.iterAt = append(w.iterAt, time.Now())
		w.doneAt = append(w.doneAt, w.srv.Completed())
	}

	t0 := time.Now()
	load := esp.Generate(opts)
	t1 := time.Now()
	load.SubmitAll(w.srv)
	t2 := time.Now()
	w.jobs = len(load.Items)
	rc.tr.add(0, 0, "esp", "generate", t0, t1)
	rc.tr.add(0, 0, "rms", "submitall", t1, t2)
	return w, nil
}

func (w *simESP) measure(time.Duration) roundResult {
	rr := roundResult{counters: map[string]float64{}}
	t0 := time.Now()
	w.srv.Run(50_000_000)
	t1 := time.Now()
	w.rc.tr.add(0, 0, "rms", "run", t0, t1)
	rr.elapsed = t1.Sub(t0)
	rr.ops = w.srv.Completed()
	rr.attempted = w.jobs
	rr.failed = w.jobs - w.srv.Completed() - w.srv.Cancelled()

	// A simulated job's wait is the wall time the researcher waited
	// for its result: from the start of the run to the scheduler
	// iteration that first saw it complete.
	rr.waits = make([]float64, 0, rr.ops)
	for i, done := range w.doneAt {
		for len(rr.waits) < done {
			rr.waits = append(rr.waits, ms(w.iterAt[i].Sub(t0)))
		}
	}

	if w.srv.Submitted() != w.jobs || rr.failed != 0 || len(w.rec.Jobs()) != w.srv.Completed() {
		rr.problems = append(rr.problems, fmt.Sprintf(
			"sim_esp: jobs not conserved: generated %d, submitted %d, completed %d, cancelled %d, recorded %d",
			w.jobs, w.srv.Submitted(), w.srv.Completed(), w.srv.Cancelled(), len(w.rec.Jobs())))
	}
	if used := w.srv.Cluster().UsedCores(); used != 0 {
		rr.problems = append(rr.problems, fmt.Sprintf("sim_esp: %d cores still in use after the run", used))
	}
	counts := map[string]float64{
		"sim.jobs":            float64(w.jobs),
		"core.iterations":     float64(w.sched.Iterations()),
		"sim.events":          float64(w.eng.Fired()),
		"core.grant_attempts": float64(w.attempts),
		"core.grants":         float64(w.grants),
	}
	if w.pinned {
		for _, name := range sortedKeys(simPins) {
			if counts[name] != simPins[name] {
				rr.problems = append(rr.problems, fmt.Sprintf("sim_esp: %s = %.0f, pinned %.0f", name, counts[name], simPins[name]))
			}
		}
	}
	rr.counters = counts
	return rr
}

func (w *simESP) close() {}
