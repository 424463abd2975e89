package main

import (
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/esp"
	"repro/internal/experiments"
)

// TestSmoke runs all five workloads at 1/100 scale, untraced and
// traced, and holds the driver to the contract in BENCHMARK.json: the
// outputs check out, and each mode emits exactly the declared metric
// names with the declared units.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := map[bool]map[string]string{false: {}, true: {}}
	for traced, list := range map[bool][]metricSpec{false: spec.EndToEnd, true: spec.PerLayer} {
		for _, m := range list {
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %v", m.Name, name)
			}
			if _, dup := declared[false][m.Name]; dup {
				t.Errorf("metric %q declared twice", m.Name)
			}
			if _, dup := declared[true][m.Name]; dup {
				t.Errorf("metric %q declared twice", m.Name)
			}
			declared[traced][m.Name] = m.Unit
		}
	}
	var specNames, defNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	for _, def := range workloads() {
		defNames = append(defNames, def.name)
	}
	if !reflect.DeepEqual(specNames, defNames) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the driver has %v", specNames, defNames)
	}

	start := time.Now()
	for _, def := range workloads() {
		for _, traced := range []bool{false, true} {
			t0 := time.Now()
			o, err := runOne(def, 1, 0.15, 0.01, traced, t.TempDir())
			t.Logf("%s traced=%v took %v", def.name, traced, time.Since(t0))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if !o.Correct {
				t.Errorf("%s traced=%v: %v", def.name, traced, o.Problems)
			}
			if o.Attempted < 1 || o.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", def.name, traced, o.Attempted, o.Failed)
			}
			got := map[string]string{}
			for n, m := range o.Metrics {
				got[n] = m.Unit
			}
			if !reflect.DeepEqual(got, declared[traced]) {
				t.Errorf("%s traced=%v: emitted metrics differ from BENCHMARK.json:\n got  %v\n want %v",
					def.name, traced, sortedPairs(got), sortedPairs(declared[traced]))
			}
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}

func sortedPairs(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return out
}

// TestSimMatchesRunESP pins the driver's take-apart of
// experiments.RunESP to the original: same input, same work counts.
func TestSimMatchesRunESP(t *testing.T) {
	const repeat, cores = 2, 240
	w, err := newSimESP(&runCtx{seed: 5, scale: 1}, repeat, cores)
	if err != nil {
		t.Fatal(err)
	}
	rr := w.measure(0)
	if len(rr.problems) > 0 {
		t.Fatal(rr.problems)
	}
	opts := esp.DefaultOpts()
	opts.Seed, opts.Repeat, opts.TotalCores = 5, repeat, cores
	want := experiments.RunESP(experiments.StandardConfigs()[2], opts)
	got := map[string]float64{
		"iterations": rr.counters["core.iterations"], "attempts": rr.counters["core.grant_attempts"],
		"grants": rr.counters["core.grants"], "jobs": float64(rr.ops),
	}
	exp := map[string]float64{
		"iterations": float64(want.Iterations), "attempts": float64(want.GrantAttempts),
		"grants": float64(want.GrantsSatisfied), "jobs": float64(len(want.Recorder.Jobs())),
	}
	if !reflect.DeepEqual(got, exp) {
		t.Errorf("driver's ESP run %v, experiments.RunESP %v", got, exp)
	}
}

func TestCompareOutcomes(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "wait_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}}
	mk := func(rate, wait float64) []outcome {
		return []outcome{{Workload: "w", Metrics: map[string]metric{
			"throughput_per_s": {rate, "1/s"}, "wait_p50_ms": {wait, "ms"},
		}}}
	}
	for _, c := range []struct {
		rate, wait float64
		bad        int
	}{
		{100, 10, 0}, // equal
		{91, 10.9, 0},
		{89, 10, 1},  // throughput fell 11 %
		{120, 12, 1}, // wait rose 20 %, throughput gain does not offset it
		{80, 12, 2},
	} {
		if bad := compareOutcomes(spec, mk(100, 10), mk(c.rate, c.wait)); bad != c.bad {
			t.Errorf("rate %v wait %v: %d failures, want %d", c.rate, c.wait, bad, c.bad)
		}
	}
}

func TestBalance(t *testing.T) {
	a := []float64{10, 20}
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := balance(a, b)
	sort.Float64s(got)
	if want := []float64{3, 7, 10, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("balance = %v, want %v", got, want)
	}
}
