package trace

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func sampleLog() *Log {
	l := &Log{}
	l.Append(0, Submit, 1, "a", 8)
	l.Append(0, Start, 1, "a", 8)
	l.Append(sim.Minute, Submit, 2, "b", 4)
	l.Append(sim.Minute, Backfill, 2, "b", 4)
	l.Append(2*sim.Minute, DynRequest, 1, "a", 4)
	l.AppendGrant(2*sim.Minute, 1, "a", 4, cluster.Alloc{{NodeID: 3, Cores: 4}})
	l.Append(3*sim.Minute, DynFree, 1, "a", 2)
	l.Append(5*sim.Minute, Complete, 2, "b", 4)
	l.Append(10*sim.Minute, Complete, 1, "a", 10)
	return l
}

func TestKindStrings(t *testing.T) {
	if Submit.String() != "submit" || DynGrant.String() != "dyngrant" || NodeUp.String() != "nodeup" {
		t.Error("kind stringer")
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("out-of-range kind")
	}
}

func TestLogBasics(t *testing.T) {
	l := sampleLog()
	if l.Len() != 9 {
		t.Errorf("len = %d", l.Len())
	}
	if got := l.Filter(Complete); len(got) != 2 {
		t.Errorf("complete events = %d", len(got))
	}
	s := l.String()
	if !strings.Contains(s, "dyngrant") || !strings.Contains(s, "00:02:00") {
		t.Errorf("log rendering:\n%s", s)
	}
}

// TestNotesReadThroughTheView checks that the payloads a log keeps
// beside its records — a grant's host slices, a reject's reason, a
// node's ID — and the job names come back as the notes and names the
// log renders.
func TestNotesReadThroughTheView(t *testing.T) {
	l := &Log{}
	l.Append(0, Submit, 7, "L.3", 16)
	l.Append(0, Submit, 8, "", 4) // unnamed: read back as its ID
	l.AppendGrant(sim.Minute, 7, "L.3", 12, cluster.Alloc{{NodeID: 4, Cores: 8}, {NodeID: 11, Cores: 4}})
	l.AppendReject(2*sim.Minute, 8, "", 2, "insufficient resources (0 idle, 2 needed)")
	l.AppendNode(3*sim.Minute, NodeDown, 4)
	l.AppendNode(4*sim.Minute, NodeUp, 4)
	l.Append(5*sim.Minute, Complete, 7, "renamed", 12) // the name written at submit stays
	want := []Event{
		{At: 0, Kind: Submit, Job: "L.3", Cores: 16},
		{At: 0, Kind: Submit, Job: "job.8", Cores: 4},
		{At: sim.Minute, Kind: DynGrant, Job: "L.3", Cores: 12, Note: "node4:8+node11:4"},
		{At: 2 * sim.Minute, Kind: DynReject, Job: "job.8", Cores: 2, Note: "insufficient resources (0 idle, 2 needed)"},
		{At: 3 * sim.Minute, Kind: NodeDown, Note: "node4 failed"},
		{At: 4 * sim.Minute, Kind: NodeUp, Note: "node4 repaired"},
		{At: 5 * sim.Minute, Kind: Complete, Job: "L.3", Cores: 12},
	}
	if got := l.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("events:\n got %+v\nwant %+v", got, want)
	}
	if got := l.Filter(DynReject); len(got) != 1 || got[0] != want[3] {
		t.Errorf("Filter(DynReject) = %+v", got)
	}
	wantLog := "00:01:00 dyngrant  L.3          cores=12   node4:8+node11:4\n" +
		"00:02:00 dynreject job.8        cores=2    insufficient resources (0 idle, 2 needed)\n" +
		"00:03:00 nodedown               node4 failed\n"
	if s := l.String(); !strings.Contains(s, wantLog) {
		t.Errorf("rendered log:\n%s\nwant it to contain:\n%s", s, wantLog)
	}
}

// TestLogSpansChunks checks that records, names and payloads that fill
// several storage chunks read back in order.
func TestLogSpansChunks(t *testing.T) {
	l := &Log{}
	const n = 3*chunkLen + 5
	for i := 1; i <= n; i++ {
		l.AppendGrant(sim.Time(i), 1, "j", i, cluster.Alloc{{NodeID: i, Cores: i}})
	}
	if l.Len() != n {
		t.Fatalf("len = %d, want %d", l.Len(), n)
	}
	for i, e := range l.Events() {
		if e.At != sim.Time(i+1) || e.Cores != i+1 || e.Note != (cluster.Alloc{{NodeID: i + 1, Cores: i + 1}}).String() {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

// TestTraceAllocsAtChunkBoundary guards the log's storage: an append of
// any kind allocates only when a storage chunk fills, never per record
// or per payload, and a chunk once made is never copied.
func TestTraceAllocsAtChunkBoundary(t *testing.T) {
	hosts := cluster.Alloc{{NodeID: 1, Cores: 4}, {NodeID: 2, Cores: 4}}
	l := &Log{}
	l.Append(0, Submit, 1, "a", 8) // the first chunk of each store
	l.AppendGrant(0, 1, "a", 8, hosts)
	l.AppendReject(0, 1, "a", 8, "no")
	const runs = 100 // 4 records, 1+4+1 pool entries and 1 reason per run: within the first chunks
	allocs := testing.AllocsPerRun(runs, func() {
		l.Append(sim.Minute, Start, 1, "a", 8)
		l.AppendGrant(sim.Minute, 1, "a", 8, hosts)
		l.AppendReject(sim.Minute, 1, "a", 8, "no")
		l.AppendNode(sim.Minute, NodeDown, 3)
	})
	if allocs != 0 {
		t.Errorf("appends inside a chunk allocate %.2f times per run, want 0", allocs)
	}
	// The record that opens the next chunk allocates it, and may grow the
	// chunk index; AllocsPerRun's warm-up call fills the last free slot.
	for l.Len() < chunkLen-1 {
		l.Append(sim.Minute, Start, 1, "a", 8)
	}
	if a := testing.AllocsPerRun(1, func() { l.Append(sim.Minute, Start, 1, "a", 8) }); a < 1 || a > 2 {
		t.Errorf("append across a chunk boundary allocated %.0f times, want 1 or 2 (the chunk, its index)", a)
	}
}

func TestSpans(t *testing.T) {
	spans := sampleLog().Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	var a, b Span
	for _, s := range spans {
		switch s.Job {
		case "a":
			a = s
		case "b":
			b = s
		}
	}
	if a.Start != 0 || a.End != 10*sim.Minute {
		t.Errorf("a span = %+v", a)
	}
	if a.GrewAt != 2*sim.Minute {
		t.Errorf("a grew at %v", a.GrewAt)
	}
	if a.Cores != 10 { // 8 + 4 granted - 2 freed
		t.Errorf("a cores = %d", a.Cores)
	}
	if !b.Backfilled || a.Backfilled {
		t.Error("backfill flags")
	}
}

func TestSpansOpenJobs(t *testing.T) {
	l := &Log{}
	l.Append(0, Start, 1, "a", 8)
	l.Append(sim.Minute, Start, 2, "b", 8)
	spans := l.Spans()
	if len(spans) != 2 {
		t.Fatalf("open spans = %d", len(spans))
	}
	for _, s := range spans {
		if s.End != sim.Minute {
			t.Errorf("open span should end at the last event: %+v", s)
		}
	}
}

func TestGantt(t *testing.T) {
	g := sampleLog().Gantt(40)
	if !strings.Contains(g, "a") || !strings.Contains(g, "b") {
		t.Errorf("gantt:\n%s", g)
	}
	if !strings.Contains(g, "#") {
		t.Error("gantt should mark the dynamic expansion with '#'")
	}
	if !strings.Contains(g, "b=") && !strings.Contains(g, "b ") {
		t.Logf("gantt:\n%s", g)
	}
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 4 { // header + 2 spans + time footer
		t.Errorf("gantt lines = %d:\n%s", len(lines), g)
	}
	empty := (&Log{}).Gantt(40)
	if !strings.Contains(empty, "empty") {
		t.Error("empty gantt")
	}
	// Tiny widths are clamped, no panic.
	_ = sampleLog().Gantt(1)
}

func TestPreemptEndsSpan(t *testing.T) {
	l := &Log{}
	l.Append(0, Start, 1, "a", 8)
	l.Append(sim.Minute, Preempt, 1, "a", 8)
	l.Append(2*sim.Minute, Start, 1, "a", 8)
	l.Append(3*sim.Minute, Complete, 1, "a", 8)
	spans := l.Spans()
	if len(spans) != 2 {
		t.Fatalf("preempted job should have two spans, got %d", len(spans))
	}
}
