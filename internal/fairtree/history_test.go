package fairtree

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestHistoryGoldenCSV(t *testing.T) {
	tr := New(Options{Interval: sim.Hour, Decay: 0.5})
	if err := tr.ApplySpec(&Spec{Nodes: []SpecNode{
		{Path: "phys", Quota: 3, Users: []string{"p1"}},
		{Path: "chem", Quota: 1, Users: []string{"c1"}},
	}}); err != nil {
		t.Fatal(err)
	}
	tr.RecordNow(tr.UserID("p1"), 300)
	tr.RecordNow(tr.UserID("c1"), 100)
	tr.Advance(sim.Hour)

	var sb strings.Builder
	h := NewHistoryWriter(&sb, HistoryCSV)
	tr.EmitHistory(h, sim.Hour, 0)
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every node sits exactly at its target share (quota 3:1, usage
	// 150:50 of 200), so all factors are identically 0.
	want := "time_s,epoch,node,depth,usage,factor,quota,live\n" +
		"phys,1,150,0,3,true\n" +
		"chem,1,50,0,1,true\n" +
		"phys.p1,2,150,0,1,true\n" +
		"chem.c1,2,50,0,1,true\n"
	// The golden above elides the time/epoch prefix for readability;
	// reconstruct the full expected bytes.
	full := "time_s,epoch,node,depth,usage,factor,quota,live\n"
	for _, line := range strings.Split(want, "\n")[1:] {
		if line == "" {
			continue
		}
		full += "3600,1," + line + "\n"
	}
	_ = want
	if got := sb.String(); got != full {
		t.Errorf("history CSV mismatch:\n got: %q\nwant: %q", got, full)
	}
}

func TestHistoryJSONLRows(t *testing.T) {
	tr := New(Options{Interval: sim.Hour, Decay: 0.5})
	tr.RecordNow(tr.UserID("a"), 100)
	var sb strings.Builder
	h := NewHistoryWriter(&sb, HistoryJSONL)
	tr.EmitHistory(h, 0, 0)
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"time_s":0,"epoch":0,"node":"a","depth":1,"usage":100,"factor":0,"quota":1,"live":true}` + "\n"
	if got := sb.String(); got != want {
		t.Errorf("history JSONL mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestParseHistoryFormat(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want HistoryFormat
		err  bool
	}{{"", HistoryCSV, false}, {"csv", HistoryCSV, false}, {"jsonl", HistoryJSONL, false}, {"xml", 0, true}} {
		got, err := ParseHistoryFormat(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseHistoryFormat(%q) err = %v", tc.in, err)
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseHistoryFormat(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
