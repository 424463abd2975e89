package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// runTraced is the per-layer run of one workload. It has three parts:
//
//  1. the workload itself, once untraced and once with the tracer on,
//     each for half the window — the traced pass yields the spans, the
//     native counts (iterations, events, grants, lock samples) and,
//     against the untraced pass, the tracing overhead;
//  2. the layer runs — shim-mom, shim-server, mauid RunOnce, a
//     simulator run and a live submit→start probe — at the workload's
//     shape;
//  3. the micro-probes of core, profile, fairness, fairtree, cluster,
//     sim and proto at that shape.
//
// Every time-valued per-layer metric comes from parts 2 and 3, which
// exist for every shape, so each is measured on every workload; part 1
// contributes counts and ratios, which are 0 where a workload bypasses
// the layer.
func runTraced(def *workloadDef, seed int64, seconds, scale float64, outDir string) (*outcome, error) {
	half := seconds / 2
	ref, err := runWorkload(def, &runCtx{seed: seed, seconds: half, scale: scale})
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	rc := &runCtx{seed: seed, seconds: half, scale: scale, tr: tr}
	res, err := runWorkload(def, rc)
	if err != nil {
		return nil, err
	}
	o := &outcome{
		Workload: def.name, Trace: true,
		Attempted: res.attempted, Failed: res.failed,
		Problems: append(append([]string(nil), ref.problems...), res.problems...),
		Samples:  map[string]int{"setups": len(res.setups), "slices": len(res.slices), "waits": len(res.waits), "spans": tr.count()},
	}

	m := layerMetrics{}
	sh := def.shape(rc)
	rng := rand.New(rand.NewSource(seed))
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"shim-mom run", func() error { return shimMomRun(sh, seed, m) }},
		{"shim-server run", func() error { return shimServerRun(sh, m) }},
		{"mauid run", func() error { return mauidRun(sh, seed, m) }},
		{"simulator run", func() error { return simLayerRun(sh, seed, m) }},
		{"live path probe", func() error { return livePathProbe(sh, rc, m) }},
		{"proto probe", func() error { return probeProto(sh, m) }},
		{"core probe", func() error { return probeCore(sh, rng, m) }},
		{"fairness probe", func() error { return probeFairness(sh, m) }},
		{"profile probe", func() error { probeProfile(sh, rng, m); return nil }},
		{"cluster probe", func() error { probeCluster(sh, m); return nil }},
		{"sim probe", func() error { probeSim(sh, rng, m); return nil }},
	} {
		if err := step.run(); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", def.name, step.name, err)
		}
	}
	nativeMetrics(ref, res, tr, m)
	o.Metrics = m
	o.Correct = len(o.Problems) == 0

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeJSONL(filepath.Join(outDir, "trace-"+def.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	self, spanMed := tr.selfTimes(), tr.medians()
	for _, layer := range sortedKeys(self) {
		fmt.Printf("  self time %-32s %14.3f s summed over spans\n", layer, self[layer].Seconds())
	}
	for _, name := range sortedKeys(spanMed) {
		fmt.Printf("  span      %-32s %14.1f us median\n", name, spanMed[name])
	}
	return o, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// nativeMetrics turns the traced pass's own counts into per-layer
// metrics, and the driver's self-checks.
func nativeMetrics(ref, res *runResult, tr *tracer, m layerMetrics) {
	c := res.counters
	m.set("core.iterations", c["core.iterations"], "count")
	m.set("core.iterations_per_job", ratio(c["core.iterations"], float64(res.ops)), "ratio")
	m.set("core.grant_ratio", ratio(c["core.grants"], c["core.grant_attempts"]), "ratio")
	m.set("serverd.beacon_drops", c["serverd.beacon_drops"], "count")
	m.set("serverd.lock_busy_frac", ratio(c["serverd.lock_wait_us"], c["serverd.lock_window_us"]), "ratio")
	m.set("mauid.cycles", c["mauid.cycles"], "count")
	m.set("mauid.applied", c["mauid.applied"], "count")
	m.set("mauid.skipped_frac", ratio(c["mauid.skipped"], c["mauid.applied"]+c["mauid.skipped"]), "ratio")
	m.set("sim.events", c["sim.events"], "count")
	m.set("sim.events_per_s", ratio(c["sim.events"], res.measured.Seconds()), "1/s")
	_, _, _, cpus := res.perSlice()
	m.set("bench.cpu_ms_per_op", percentile(cpus, 0.25), "ms")
	m.set("bench.samples", float64(len(res.waits)), "count")
	m.set("bench.spans", float64(tr.count()), "count")
	m.set("bench.wait_p99_ms", percentile(res.waits, 0.99), "ms")
	if len(res.lates) > 0 {
		// The workload has an open-loop generator of its own: its
		// lateness replaces the live path probe's.
		m.set("bench.generator_late_p99_ms", percentile(res.lates, 0.99), "ms")
	}
	// Tracing overhead on the workload's primary figure: throughput,
	// or the median wait where the rate is fixed by an open loop.
	refM, gotM := ref.endToEnd(), res.endToEnd()
	primary, better := "throughput_per_s", "higher"
	if len(res.lates) > 0 {
		primary, better = "wait_p50_ms", "lower"
	}
	m.set("bench.trace_overhead_pct", 100*worseBy(better, refM[primary].Value, gotM[primary].Value), "%")
	// The live path split at the wire: how far the pieces — generator
	// lateness, qsub sent → RunJob at the mom, RunJob → application —
	// are from adding up to the submit→start median the probe measured.
	whole := m["bench.live_path_p50_us"].Value
	parts := m["bench.live_path_late_p50_us"].Value + m["serverd.server_path_us"].Value + m["mom.launch_us"].Value
	m.set("bench.attribution_residual_pct", 100*ratio(math.Abs(whole-parts), whole), "%")
}

// simLayerRun runs the simulator stack on an ESP mix scaled to the
// workload's cluster and (capped) depth, timing generation, submission
// and the event loop.
func simLayerRun(sh shape, seed int64, m layerMetrics) error {
	repeat := max(1, min(sh.depth, 6000)/228)
	tr := newTracer()
	w, err := newSimESP(&runCtx{seed: seed, scale: 1, tr: tr}, repeat, sh.moms*sh.cores)
	if err != nil {
		return err
	}
	rr := w.measure(0)
	if len(rr.problems) > 0 {
		return fmt.Errorf("%s", rr.problems[0])
	}
	for _, s := range tr.spans {
		d := float64(s.EndNS - s.StartNS)
		switch s.Layer + "." + s.Name {
		case "esp.generate":
			m.set("esp.generate_ms", d/1e6, "ms")
		case "rms.submitall":
			m.set("rms.submitall_ms", d/1e6, "ms")
		case "rms.run":
			m.set("rms.run_s", d/1e9, "s")
		}
	}
	return nil
}

// livePathProbe measures submit→start on the real stack at the
// workload's cluster size with a light open loop, as the whole the
// shim runs' pieces should add up to.
func livePathProbe(sh shape, rc *runCtx, m layerMetrics) error {
	st, err := bootStack(stackOpts{moms: min(sh.moms, shimMomsCap), cores: sh.cores})
	if err != nil {
		return err
	}
	frac := math.Min(1, rc.scale*10) // the smoke test's scale shrinks the probe too
	w := &submitShallow{rc: &runCtx{seed: rc.seed, scale: rc.scale}, st: st, rate: shimOpenRate * frac}
	defer w.close()
	rr := w.measure(time.Duration(float64(shimOpenWindow) * frac))
	if len(rr.problems) > 0 {
		return fmt.Errorf("%s", rr.problems[0])
	}
	m.set("bench.live_path_p50_us", 1e3*percentile(rr.waits, 0.5), "us")
	m.set("bench.live_path_late_p50_us", 1e3*percentile(rr.lates, 0.5), "us")
	m.set("bench.generator_late_p99_ms", percentile(rr.lates, 0.99), "ms")
	return nil
}
