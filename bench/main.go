// Command bench is the repository's benchmark: it boots the real stack
// in-process (serverd, the embedded scheduler or mauid, real moms on
// loopback, tm applications) or the simulator stack (esp → rms → sim →
// core), runs five workloads, checks their outputs and prints every
// metric by name with its unit. See README.md in this directory.
//
//	go run ./bench                         all workloads, untraced then traced
//	go run ./bench -workload dyn_fair      one workload (-seed, -seconds, -trace 0|1)
//	go run ./bench -selfcheck              the untraced set twice (medians of three runs a side), compared within bounds
//	go run ./bench -compare a.json b.json  two saved results, same rule
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"} — the form the benchmark
// contract (BENCHMARK.json) reads: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// workloads is the benchmark's workload list, in BENCHMARK.json order.
func workloads() []*workloadDef {
	return []*workloadDef{
		drainDef("drain_deep", drainDeepJobs, false),
		submitDef(),
		dynDef(),
		drainDef("drain_mauid", drainMauidJobs, true),
		simDef(),
	}
}

func findWorkload(name string) *workloadDef {
	for _, def := range workloads() {
		if def.name == name {
			return def
		}
	}
	return nil
}

// outcome is one workload's result in one mode, as printed and saved.
type outcome struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"`
	// Rounds is the throughput of each measured slice (round, or
	// second of a continuous window), the spread behind the median.
	Rounds []float64 `json:"slices_per_s,omitempty"`
}

// savedResults is the shape of results.json.
type savedResults struct {
	Commit   string    `json:"commit"`
	NProc    int       `json:"nproc"`
	Go       string    `json:"go"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Outcomes []outcome `json:"outcomes"`
}

func runOne(def *workloadDef, seed int64, seconds, scale float64, traced bool, outDir string) (*outcome, error) {
	if traced {
		return runTraced(def, seed, seconds, scale, outDir)
	}
	res, err := runWorkload(def, &runCtx{seed: seed, seconds: seconds, scale: scale})
	if err != nil {
		return nil, err
	}
	rates, _, _, _ := res.perSlice()
	return &outcome{
		Workload: def.name, Correct: len(res.problems) == 0,
		Attempted: res.attempted, Failed: res.failed, Problems: res.problems,
		Metrics: res.endToEnd(),
		Samples: map[string]int{"setups": len(res.setups), "slices": len(res.slices), "waits": len(res.waits)},
		Rounds:  rates,
	}, nil
}

func printOutcome(o *outcome) {
	mode := "untraced"
	if o.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s (%s): correct=%v attempted=%d failed=%d\n", o.Workload, mode, o.Correct, o.Attempted, o.Failed)
	for _, name := range sortedKeys(o.Metrics) {
		m := o.Metrics[name]
		fmt.Printf("  %-36s %16.4f %s\n", name, m.Value, m.Unit)
	}
	for _, p := range o.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
}

func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func saveResults(outDir string, seed int64, seconds float64, outcomes []outcome) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(savedResults{
		Commit: commitID(), NProc: runtime.NumCPU(), Go: runtime.Version(),
		Seed: seed, Seconds: seconds, Outcomes: outcomes,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "results.json"), append(b, '\n'), 0o644)
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (default: all five)")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 0, "measured window per workload (default: run_seconds of BENCHMARK.json)")
		trace     = flag.String("trace", "", "0 = untraced end-to-end run, 1 = traced per-layer run (default: both when running all)")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced set twice, three fresh processes a side; fail if any end-to-end metric's medians differ by more than its bound")
		compare   = flag.Bool("compare", false, "compare two saved results.json files (arguments) within the bounds")
		specPath  = flag.String("spec", "BENCHMARK.json", "benchmark contract")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for results.json and trace files (empty: write none)")
	)
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace, *selfcheck, *compare, *specPath, *outDir, flag.Args()))
}

func run(workload string, seed int64, seconds float64, trace string, selfcheck, compare bool, specPath, outDir string, args []string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	if trace != "" && trace != "0" && trace != "1" {
		fmt.Fprintln(os.Stderr, "bench: -trace wants 0 or 1")
		return 2
	}
	switch {
	case compare:
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two results.json files")
			return 2
		}
		return compareFiles(spec, args[0], args[1])
	case selfcheck:
		return selfCheck(spec, specPath, seed, seconds)
	}

	defs := workloads()
	if workload != "" {
		def := findWorkload(workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workload)
			return 2
		}
		defs = []*workloadDef{def}
		if trace == "" {
			trace = "0"
		}
	}
	var outcomes []outcome
	ok := true
	for _, traced := range []bool{false, true} {
		if (traced && trace == "0") || (!traced && trace == "1") {
			continue
		}
		for _, def := range defs {
			o, err := runOne(def, seed, seconds, 1, traced, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printOutcome(o)
			outcomes = append(outcomes, *o)
			ok = ok && o.Correct
		}
	}
	if outDir != "" {
		if err := saveResults(outDir, seed, seconds, outcomes); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if workload != "" {
		// The contract line: last on standard output, exactly these keys.
		o := outcomes[0]
		line, err := json.Marshal(map[string]any{
			"correct": o.Correct, "attempted": o.Attempted, "failed": o.Failed, "metrics": o.Metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}
