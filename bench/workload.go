package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// runCtx carries one run's inputs into a workload.
type runCtx struct {
	seed    int64
	seconds float64 // measured window, across rounds
	// scale multiplies every job count and rate; 1 is the benchmark,
	// the smoke test runs at 1/100.
	scale float64
	tr    *tracer // nil = untraced
}

// n scales a full-size count, keeping at least lo.
func (rc *runCtx) n(full, lo int) int {
	v := int(float64(full) * rc.scale)
	if v < lo {
		v = lo
	}
	return v
}

// instance is one freshly set-up copy of a workload's system and
// input. A run sets up and measures several (see runWorkload).
type instance interface {
	// measure runs the measured window. Fixed-size workloads (the
	// drains, the simulator) ignore budget and run their whole input
	// once; open- and closed-loop workloads run for budget.
	measure(budget time.Duration) roundResult
	// close tears the instance down, stopping everything it started.
	close()
}

// slice is one stretch of measured work whose figures are taken on
// their own: one fixed-size round, or one second of an open- or
// closed-loop window. A run reports a quartile over its slices (see
// endToEnd), so a few seconds of interference from the host move a few
// slices, not the result.
type slice struct {
	rate     float64   // operations per second
	cpuPerOp float64   // process CPU (user+system) per operation, ms
	waits    []float64 // per-operation waits, ms
}

// roundResult is what one measured window produced.
type roundResult struct {
	ops       int           // operations completed
	attempted int           // every operation tried, side traffic included
	failed    int           // attempted operations that failed
	late      int           // completed operations an open loop sent more than lateLimit late
	elapsed   time.Duration // wall time the window took
	waits     []float64     // every wait sample of the window, ms
	// slices cuts the window up; a fixed-size workload leaves it empty
	// and the whole round becomes one slice.
	slices   []slice
	lates    []float64 // how late an open-loop generator sent each operation, ms
	problems []string  // failed correctness checks
	// counters are the native per-layer counts of this round (traced
	// runs read them; see layers.go).
	counters map[string]float64
}

// workloadDef describes one benchmark workload. Why each exists is
// recorded in BENCHMARK.json and README.md.
type workloadDef struct {
	name string
	// shape is the state size the layer runs rebuild (at scale 1).
	shape func(rc *runCtx) shape
	setup func(rc *runCtx) (instance, error)
}

// runResult aggregates the rounds of one run of one workload.
type runResult struct {
	attempted int
	failed    int
	late      int
	problems  []string
	setups    []float64 // seconds, one per set-up
	slices    []slice   // every slice of every measured round
	waits     []float64 // ms, pooled over rounds
	lates     []float64 // ms, pooled over rounds
	ops       int
	measured  time.Duration
	rss       []float64 // MB, the resident-set peak of each measured round
	counters  map[string]float64
}

// roundCap bounds one measured window of an open- or closed-loop
// workload. A run then measures several freshly booted instances, as
// it does several rounds of a fixed-size workload: sub-millisecond
// waits settle at a level per instance (which threads and sockets the
// boot happened to produce) that differs by ±15 % from one instance to
// the next, and only a figure taken over several instances repeats.
const roundCap = 4 * time.Second

// Every run sets its workload up at least minSetups times, and keeps
// setting it up until the set-ups add up to setupFloor or there are
// maxSetups of them, so that setup_s is a median of enough work: a
// boot of a few milliseconds needs many samples to repeat within its
// bound, a preload of a deep queue needs few.
const (
	minSetups  = 5
	maxSetups  = 25
	setupFloor = time.Second
)

// runWorkload sets the workload up and measures it, round after
// round, until the measured windows add up to rc.seconds — to within
// half a round, since a fixed-size round cannot be cut short — and
// enough set-ups were timed. A workload whose one window takes the
// whole budget is still set up several times; the extra instances are
// only timed and torn down.
func runWorkload(def *workloadDef, rc *runCtx) (*runResult, error) {
	res := &runResult{counters: map[string]float64{}}
	budget := time.Duration(rc.seconds * float64(time.Second))
	var setupTotal, lastRound time.Duration
	moreSetups := func() bool {
		n := len(res.setups)
		if rc.scale < 1 {
			return n < 2 // the smoke test checks the plumbing, not the statistics
		}
		return n < minSetups || (n < maxSetups && setupTotal < setupFloor)
	}
	moreRounds := func() bool { return res.measured+lastRound/2 < budget }
	for moreRounds() || moreSetups() {
		t0 := time.Now()
		inst, err := def.setup(rc)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		took := time.Since(t0)
		setupTotal += took
		res.setups = append(res.setups, took.Seconds())
		if moreRounds() {
			rss := startRSSPeak()
			cpu0 := cpuTime()
			rr := inst.measure(min(budget-res.measured, roundCap))
			cpu := cpuTime() - cpu0
			res.rss = append(res.rss, rss.finish())
			if len(rr.slices) == 0 && rr.ops > 0 && rr.elapsed > 0 {
				rr.slices = []slice{{
					rate: float64(rr.ops) / rr.elapsed.Seconds(), cpuPerOp: ms(cpu) / float64(rr.ops), waits: rr.waits,
				}}
			}
			res.slices = append(res.slices, rr.slices...)
			res.measured += rr.elapsed
			lastRound = rr.elapsed
			res.ops += rr.ops
			res.attempted += rr.attempted
			res.failed += rr.failed
			res.late += rr.late
			res.problems = append(res.problems, rr.problems...)
			res.waits = append(res.waits, rr.waits...)
			res.lates = append(res.lates, rr.lates...)
			for _, k := range sortedKeys(rr.counters) {
				res.counters[k] += rr.counters[k]
			}
		}
		inst.close()
		// Hand the instance's memory back, so the next round's peak is
		// its own and not what this one left behind.
		runtime.GC()
		debug.FreeOSMemory()
	}
	if res.ops == 0 {
		res.problems = append(res.problems, "no operation completed")
	}
	// No workload is laid out so that an operation fails, so any share
	// of failures worth the name means the run measured something else.
	if res.failed*20 > res.attempted {
		res.problems = append(res.problems, fmt.Sprintf("%s: %d of %d operations failed", def.name, res.failed, res.attempted))
	}
	// A stall of the host makes an open loop send late the samples that
	// fell due in it; they are timed from their due times and so show in
	// the waits, and in bench.generator_late_p99_ms. A run in which one
	// operation in ten was late is something else: the generator could
	// not hold its rate (its lateness then grows without bound, so nearly
	// every sample is late), and the figures describe a different load
	// from the one declared.
	if res.late*10 > res.attempted {
		res.problems = append(res.problems, fmt.Sprintf("%s: %d of %d operations were sent more than %v late",
			def.name, res.late, res.attempted, lateLimit))
	}
	return res, nil
}

// endToEnd turns a run into the end-to-end metrics of BENCHMARK.json.
//
// Throughput and the wait percentiles are taken per slice, and the run
// reports the quartile of its slices the host disturbed least: the
// upper quartile of the rates, the lower quartile of the waits. The
// host's interference is one-sided and comes in phases of 5–20 s — on
// the machine this was written on a loopback round trip takes 15 µs in
// one phase and 40 µs in the next — so within one run some slices fall
// in a quiet phase and some do not, and the median over slices moves
// with the share of each. The quiet quartile repeats; a change to the
// program moves every slice and therefore moves it too. Set-up time
// and memory are medians over set-ups and rounds.
func (r *runResult) endToEnd() map[string]metric {
	rates, p50s, p90s, _ := r.perSlice()
	return map[string]metric{
		"setup_s":          {median(r.setups), "s"},
		"throughput_per_s": {percentile(rates, 0.75), "1/s"},
		"wait_p50_ms":      {percentile(p50s, 0.25), "ms"},
		"wait_p90_ms":      {percentile(p90s, 0.25), "ms"},
		"peak_rss_mb":      {median(r.rss), "MB"},
	}
}

// perSlice lists each slice's rate, wait percentiles and CPU per
// operation.
func (r *runResult) perSlice() (rates, p50s, p90s, cpus []float64) {
	for _, sl := range r.slices {
		rates = append(rates, sl.rate)
		p50s = append(p50s, percentile(sl.waits, 0.50))
		p90s = append(p90s, percentile(sl.waits, 0.90))
		cpus = append(cpus, sl.cpuPerOp)
	}
	return rates, p50s, p90s, cpus
}

// window cuts a continuous measured window starting at t0 into slices
// of one second (one slice of the whole budget if that is shorter).
// The first slice of a window of three or more is warm-up and dropped.
type window struct {
	t0    time.Time
	each  time.Duration
	n     int // slices, warm-up included
	warm  int // leading slices to drop
	cpuAt []time.Duration
}

func newWindow(t0 time.Time, budget time.Duration) *window {
	w := &window{t0: t0, each: time.Second, n: int(budget / time.Second)}
	if w.n < 1 {
		w.each, w.n = budget, 1
	}
	if w.n >= 3 {
		w.warm = 1
	}
	return w
}

// markUpTo records the process CPU time for every slice boundary at or
// before now that has none yet (boundary k is t0 + k·each, k ≤ n). The
// measuring loop calls it as it reaches each boundary; a nil window
// ignores it.
func (w *window) markUpTo(now time.Time) {
	for w != nil && len(w.cpuAt) <= w.n && !now.Before(w.t0.Add(time.Duration(len(w.cpuAt))*w.each)) {
		w.cpuAt = append(w.cpuAt, cpuTime())
	}
}

// index returns the slice an instant falls in, or -1 when it is in the
// warm-up or outside the window.
func (w *window) index(at time.Time) int {
	i := int(at.Sub(w.t0) / w.each)
	if at.Before(w.t0) || i < w.warm || i >= w.n {
		return -1
	}
	return i - w.warm
}

// slices builds the window's slices from per-slice wait samples; every
// sample is one completed operation.
func (w *window) slices(waits [][]float64) []slice {
	out := make([]slice, 0, len(waits))
	for i, ws := range waits {
		sl := slice{rate: float64(len(ws)) / w.each.Seconds(), waits: ws}
		if k := i + w.warm; k+1 < len(w.cpuAt) && len(ws) > 0 {
			sl.cpuPerOp = ms(w.cpuAt[k+1]-w.cpuAt[k]) / float64(len(ws))
		}
		out = append(out, sl)
	}
	return out
}
