package experiments

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/esp"
)

// TestESPRunsAreBitIdentical is the end-to-end determinism guarantee
// the nodeterminism/maporder analyzers exist to protect: running the
// seed ESP scenario twice in one process must reproduce the full
// decision trace, the schedule event log, and the Table II summary
// byte for byte. Any wall-clock read, unsorted map iteration, or
// order-dependent float accumulation on the scheduling path shows up
// here as a diff between two same-seed runs.
func TestESPRunsAreBitIdentical(t *testing.T) {
	// Dyn-500 exercises the most machinery: dynamic requests, delay
	// measurement, and the fairness bound.
	cfg := StandardConfigs()[2]
	a := RunESP(cfg, esp.DefaultOpts())
	b := RunESP(cfg, esp.DefaultOpts())

	if a.Iterations != b.Iterations {
		t.Errorf("iteration counts differ: %d vs %d", a.Iterations, b.Iterations)
	}
	if a.GrantAttempts != b.GrantAttempts || a.GrantsSatisfied != b.GrantsSatisfied {
		t.Errorf("grant traffic differs: %d/%d vs %d/%d",
			a.GrantsSatisfied, a.GrantAttempts, b.GrantsSatisfied, b.GrantAttempts)
	}
	if len(a.Decisions) != len(b.Decisions) {
		t.Fatalf("decision counts differ: %d vs %d", len(a.Decisions), len(b.Decisions))
	}
	for i := range a.Decisions {
		if !reflect.DeepEqual(a.Decisions[i], b.Decisions[i]) {
			t.Fatalf("decision %d differs:\n  run A: %+v\n  run B: %+v",
				i, a.Decisions[i], b.Decisions[i])
		}
	}
	if !reflect.DeepEqual(a.Summary, b.Summary) {
		t.Errorf("summaries differ:\n  run A: %+v\n  run B: %+v", a.Summary, b.Summary)
	}
	ha, hb := sha256.Sum256([]byte(a.Trace.String())), sha256.Sum256([]byte(b.Trace.String()))
	if ha != hb {
		t.Errorf("trace logs differ: sha256 %x vs %x", ha, hb)
	}
	// Two same-seed runs agree with each other even when the log renders
	// wrongly both times; these pins hold its bytes to the ones the
	// string-keeping log rendered before records were resolved on read.
	const (
		wantLog   = "abdc991c737c02f1e363a110eac2046e7c029cbd8987a62da7e13a9bcae3e2f3"
		wantGantt = "c0e717828898eacddee22751ce76207281520a68b6499cef6e664f33c6771956"
	)
	if got := fmt.Sprintf("%x", ha); got != wantLog {
		t.Errorf("Dyn-500 event log sha256 = %s, want %s", got, wantLog)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(a.Trace.Gantt(120)))); got != wantGantt {
		t.Errorf("Dyn-500 Gantt(120) sha256 = %s, want %s", got, wantGantt)
	}
}

// TestTableIIIsBitIdentical runs the whole four-configuration Table II
// comparison twice and requires byte-identical rendered output.
func TestTableIIIsBitIdentical(t *testing.T) {
	t1 := TableII(RunStandard(esp.DefaultOpts()))
	t2 := TableII(RunStandard(esp.DefaultOpts()))
	if t1 != t2 {
		t.Errorf("Table II differs between same-seed runs:\n--- run A\n%s\n--- run B\n%s", t1, t2)
	}
}
