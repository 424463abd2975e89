package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// compareOutcomes applies the benchmark's own regression rule to two
// sets of untraced results: every end-to-end metric of every workload
// in b may be worse than in a by at most its BENCHMARK.json bound. It
// prints one row per pairing and returns how many failed.
func compareOutcomes(spec *benchSpec, a, b []outcome) int {
	byName := map[string]*outcome{}
	for i := range a {
		if !a[i].Trace {
			byName[a[i].Workload] = &a[i]
		}
	}
	bad := 0
	for i := range b {
		ob := &b[i]
		oa := byName[ob.Workload]
		if ob.Trace || oa == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := oa.Metrics[m.Name].Value, ob.Metrics[m.Name].Value
			worse := worseBy(m.Better, va, vb)
			verdict := "ok"
			if worse > m.Bound {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("%-16s %-18s %14.4f %14.4f %s  %+6.1f%% (bound %.0f%%) %s\n",
				ob.Workload, m.Name, va, vb, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	return bad
}

// selfReps is how many runs make one side of a selfcheck comparison.
// One run against one run fails one time in three on a shared host,
// where the same sub-millisecond wait reads ±15 % from one boot of the
// stack to the next; the benchmark contract likewise compares medians
// of several runs, never single runs.
const selfReps = 3

// selfCheck runs the untraced set twice — each workload selfReps times
// a side, the sides alternating so the host's slow drift falls on both
// — and fails if the median of either side is worse than the other's
// beyond a bound: a benchmark that cannot agree with itself cannot
// judge a change. Every run is a fresh process, as the benchmark
// contract runs them, so none inherits the heap or the collector's
// pacing of the one before.
func selfCheck(spec *benchSpec, specPath string, seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var sides [2][]outcome
	for _, def := range workloads() {
		var values [2]map[string][]float64
		for rep := 0; rep < selfReps; rep++ {
			for side := range sides {
				cmd := exec.Command(self, "-workload", def.name, "-trace", "0", "-spec", specPath, "-out", "",
					"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var o outcome
				if jsonErr := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil || jsonErr != nil || !o.Correct {
					fmt.Print(string(out))
					fmt.Fprintf(os.Stderr, "bench: selfcheck run of %s failed: %v\n", def.name, err)
					return 1
				}
				if values[side] == nil {
					values[side] = map[string][]float64{}
				}
				for _, name := range sortedKeys(o.Metrics) {
					values[side][name] = append(values[side][name], o.Metrics[name].Value)
				}
			}
		}
		for side := range sides {
			o := outcome{Workload: def.name, Correct: true, Metrics: map[string]metric{}}
			for _, m := range spec.EndToEnd {
				o.Metrics[m.Name] = metric{median(values[side][m.Name]), m.Unit}
			}
			sides[side] = append(sides[side], o)
		}
	}
	if bad := compareOutcomes(spec, sides[0], sides[1]) + compareOutcomes(spec, sides[1], sides[0]); bad > 0 {
		fmt.Printf("selfcheck: %d metric(s) differ by more than their bound\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every end-to-end metric agrees within its bound")
	return 0
}

func compareFiles(spec *benchSpec, pathA, pathB string) int {
	load := func(path string) ([]outcome, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r savedResults
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return r.Outcomes, nil
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if bad := compareOutcomes(spec, a, b); bad > 0 {
		fmt.Printf("compare: %d metric(s) of %s are worse than %s by more than their bound\n", bad, pathB, pathA)
		return 1
	}
	return 0
}
