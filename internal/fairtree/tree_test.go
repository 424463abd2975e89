package fairtree

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestFlatFactorMatchesLegacyFormula(t *testing.T) {
	tr := New(Options{Interval: sim.Hour, Decay: 0.5})
	a := tr.UserID("a")
	b := tr.UserID("b")
	c := tr.UserID("c")
	tr.RecordNow(a, 600)
	tr.RecordNow(b, 300)
	tr.RecordNow(c, 100)

	total := 1000.0
	for _, tc := range []struct {
		id NodeID
		u  float64
	}{{a, 600}, {b, 300}, {c, 100}} {
		want := 1.0/3 - tc.u/total
		if got := tr.Factor(tc.id); got != want {
			t.Errorf("Factor(%d) = %g, want %g", tc.id, got, want)
		}
	}
	// An unknown user's hypothetical factor is a full equal share.
	if got, want := tr.NewcomerFactor(), 1.0/3; got != want {
		t.Errorf("NewcomerFactor = %g, want %g", got, want)
	}
	if tr.LiveLeaves() != 3 {
		t.Errorf("LiveLeaves = %d, want 3", tr.LiveLeaves())
	}
	if !tr.Flat() {
		t.Error("flat tree reported non-flat")
	}
}

func TestLazyDecayOnAdvance(t *testing.T) {
	tr := New(Options{Interval: sim.Hour, Decay: 0.5})
	a := tr.UserID("a")
	tr.RecordNow(a, 1000)
	if got := tr.UsageOf(a); got != 1000 {
		t.Fatalf("usage before advance = %g, want 1000", got)
	}
	tr.Advance(2 * sim.Hour)
	if got := tr.UsageOf(a); got != 250 {
		t.Errorf("usage after 2 intervals = %g, want 250", got)
	}
	// Many idle epochs in one Advance: 1000·0.5^10 = 0.9765625.
	tr2 := New(Options{Interval: sim.Hour, Decay: 0.5})
	b := tr2.UserID("b")
	tr2.RecordNow(b, 1000)
	tr2.Advance(10 * sim.Hour)
	if got, want := tr2.UsageOf(b), 1000*math.Pow(0.5, 10); got != want {
		t.Errorf("usage after 10 intervals = %g, want %g", got, want)
	}
}

func TestDeathMatchesLegacyPruneThreshold(t *testing.T) {
	// Legacy pruned an entry when usage·decay < 1e-9 at a boundary.
	tr := New(Options{Interval: sim.Hour, Decay: 0.5})
	a := tr.UserID("a")
	b := tr.UserID("b")
	tr.RecordNow(a, 1.2e-9) // dies when 1.2e-9·0.5 = 0.6e-9 < 1e-9: epoch 1
	tr.RecordNow(b, 1000)
	tr.Advance(sim.Hour)
	if got := tr.UsageOf(a); got != 0 {
		t.Errorf("a should be pruned at epoch 1, usage = %g", got)
	}
	if tr.LiveLeaves() != 1 {
		t.Errorf("LiveLeaves = %d, want 1", tr.LiveLeaves())
	}
	// Factor now sees n=1: b holds the full share.
	if got, want := tr.Factor(b), 1.0-1.0; got != want {
		t.Errorf("Factor(b) = %g, want %g", got, want)
	}
	// A pruned user's factor is the newcomer share (usage 0, n=1).
	if got, want := tr.Factor(a), 1.0; got != want {
		t.Errorf("Factor(a) after prune = %g, want %g", got, want)
	}
}

func TestReviveAfterDeath(t *testing.T) {
	tr := New(Options{Interval: sim.Hour, Decay: 0})
	a := tr.UserID("a")
	tr.RecordNow(a, 500)
	tr.Advance(sim.Hour) // decay 0 clears everything
	if tr.LiveLeaves() != 0 {
		t.Fatalf("LiveLeaves after clear = %d, want 0", tr.LiveLeaves())
	}
	if got := tr.Factor(a); got != 0 {
		t.Errorf("Factor with no usage = %g, want 0", got)
	}
	tr.RecordNow(a, 100)
	if tr.LiveLeaves() != 1 {
		t.Errorf("LiveLeaves after revive = %d, want 1", tr.LiveLeaves())
	}
	if got := tr.UsageOf(a); got != 100 {
		t.Errorf("usage after revive = %g, want 100", got)
	}
}

func TestDecayOneNeverForgets(t *testing.T) {
	tr := New(Options{Interval: sim.Hour, Decay: 1})
	a := tr.UserID("a")
	tr.RecordNow(a, 42)
	tr.Advance(1000 * sim.Hour)
	if got := tr.UsageOf(a); got != 42 {
		t.Errorf("usage with decay=1 = %g, want 42", got)
	}
	if tr.LiveLeaves() != 1 {
		t.Errorf("LiveLeaves = %d, want 1", tr.LiveLeaves())
	}
}

func TestHierarchicalFactor(t *testing.T) {
	tr := New(Options{Interval: sim.Hour, Decay: 0.5})
	spec := &Spec{Nodes: []SpecNode{
		{Path: "phys", Quota: 3, Users: []string{"p1", "p2"}},
		{Path: "chem", Quota: 1, Users: []string{"c1"}},
	}}
	if err := tr.ApplySpec(spec); err != nil {
		t.Fatal(err)
	}
	if tr.Flat() {
		t.Error("hierarchical tree reported flat")
	}
	p1 := tr.UserID("p1")
	p2 := tr.UserID("p2")
	c1 := tr.UserID("c1")
	if got, want := tr.Path(p1), "phys.p1"; got != want {
		t.Errorf("Path(p1) = %q, want %q", got, want)
	}
	tr.RecordNow(p1, 300)
	tr.RecordNow(p2, 100)
	tr.RecordNow(c1, 100)
	// p1: leaf level target 1/2 within phys, actual 300/400;
	// phys level target 3/4, actual 400/500.
	wantP1 := (0.5 - 300.0/400) + (0.75 - 400.0/500)
	if got := tr.Factor(p1); math.Abs(got-wantP1) > 1e-15 {
		t.Errorf("Factor(p1) = %g, want %g", got, wantP1)
	}
	// c1: sole leaf in chem (target 1, actual 1), chem level target
	// 1/4, actual 100/500.
	wantC1 := (1.0 - 1.0) + (0.25 - 100.0/500)
	if got := tr.Factor(c1); math.Abs(got-wantC1) > 1e-15 {
		t.Errorf("Factor(c1) = %g, want %g", got, wantC1)
	}
}

func TestOverQuotaWeightSoftensPenalty(t *testing.T) {
	tr := New(Options{Interval: sim.Hour, Decay: 0.5})
	a := tr.UserID("a")
	b := tr.UserID("b")
	tr.RecordNow(a, 900)
	tr.RecordNow(b, 100)
	base := tr.Factor(a) // 0.5 − 0.9 = −0.4
	tr.SetOverWeight(a, 2)
	if got, want := tr.Factor(a), base/2; got != want {
		t.Errorf("over-quota factor with weight 2 = %g, want %g", got, want)
	}
	// Under-quota b is unaffected by its own over-quota weight.
	under := tr.Factor(b)
	tr.SetOverWeight(b, 2)
	if got := tr.Factor(b); got != under {
		t.Errorf("under-quota factor changed with weight: %g != %g", got, under)
	}
}

func TestQuotaWeighting(t *testing.T) {
	tr := New(Options{Interval: sim.Hour, Decay: 0.5})
	a := tr.UserID("a")
	b := tr.UserID("b")
	tr.RecordNow(a, 500)
	tr.RecordNow(b, 500)
	tr.SetQuota(a, 3) // a entitled to 3/4 of the machine
	if got, want := tr.Factor(a), 3.0/4-0.5; got != want {
		t.Errorf("Factor(a) with quota 3 = %g, want %g", got, want)
	}
	if got, want := tr.Factor(b), 1.0/4-0.5; got != want {
		t.Errorf("Factor(b) = %g, want %g", got, want)
	}
}

func TestDirtyLog(t *testing.T) {
	tr := New(Options{Interval: sim.Hour, Decay: 0.5})
	tr.maxDirty = 4
	base := tr.ChangeSerial()
	a := tr.UserID("a")
	b := tr.UserID("b")
	tr.RecordNow(a, 10)
	tr.RecordNow(a, 10) // consecutive repeat: coalesced
	tr.RecordNow(b, 10)
	dirty, ok := tr.DirtySince(base)
	if !ok {
		t.Fatal("DirtySince fell behind unexpectedly")
	}
	if len(dirty) != 2 || dirty[0] != a || dirty[1] != b {
		t.Fatalf("dirty = %v, want [%d %d]", dirty, a, b)
	}
	// Nothing since the current serial.
	if d, ok := tr.DirtySince(tr.ChangeSerial()); !ok || len(d) != 0 {
		t.Fatalf("DirtySince(now) = %v, %v", d, ok)
	}
	// Overflow compaction invalidates old serials.
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			tr.RecordNow(a, 1)
		} else {
			tr.RecordNow(b, 1)
		}
	}
	if _, ok := tr.DirtySince(base); ok {
		t.Error("DirtySince should report compaction for stale serial")
	}
}

func TestUserHomePlacement(t *testing.T) {
	tr := New(Options{})
	if err := tr.ApplySpec(&Spec{Nodes: []SpecNode{
		{Path: "org.team", Users: []string{"u1"}},
	}}); err != nil {
		t.Fatal(err)
	}
	u1 := tr.UserID("u1")
	u2 := tr.UserID("u2") // not homed: direct child of root
	if got, want := tr.Path(u1), "org.team.u1"; got != want {
		t.Errorf("Path(u1) = %q, want %q", got, want)
	}
	if got, want := tr.Path(u2), "u2"; got != want {
		t.Errorf("Path(u2) = %q, want %q", got, want)
	}
	if id := tr.UserID("u1"); id != u1 {
		t.Errorf("UserID not stable: %d != %d", id, u1)
	}
	if id, ok := tr.LookupUser("u1"); !ok || id != u1 {
		t.Errorf("LookupUser(u1) = %d,%v", id, ok)
	}
	if _, ok := tr.LookupUser("nobody"); ok {
		t.Error("LookupUser(nobody) should miss")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []*Spec{
		{Nodes: []SpecNode{{Path: ""}}},
		{Nodes: []SpecNode{{Path: "a..b"}}},
		{Nodes: []SpecNode{{Path: "a", Users: []string{""}}}},
		{Nodes: []SpecNode{{Path: "a", Users: []string{"u"}}, {Path: "b", Users: []string{"u"}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should fail validation", i)
		}
	}
	ok := &Spec{Nodes: []SpecNode{{Path: "a.b.c", Quota: 2, OverQuotaWeight: 1.5, Users: []string{"x", "y"}}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestRankingTracksHeaviestUsers(t *testing.T) {
	tr := New(Options{Interval: sim.Hour, Decay: 0.5})
	tr.EnableRanking()
	a := tr.UserID("a")
	b := tr.UserID("b")
	c := tr.UserID("c")
	tr.RecordNow(a, 100)
	tr.RecordNow(b, 300)
	tr.RecordNow(c, 200)
	if got := tr.Top(); got != b {
		t.Errorf("Top = %d, want %d", got, b)
	}
	top := tr.TopK(3, nil)
	if len(top) != 3 || top[0] != b || top[1] != c || top[2] != a {
		t.Errorf("TopK = %v, want [%d %d %d]", top, b, c, a)
	}
	// Decay is uniform: order must survive epochs without updates.
	tr.Advance(5 * sim.Hour)
	if got := tr.Top(); got != b {
		t.Errorf("Top after decay = %d, want %d", got, b)
	}
	// A new record overtakes.
	tr.RecordNow(a, 1000)
	if got := tr.Top(); got != a {
		t.Errorf("Top after burst = %d, want %d", got, a)
	}
	// Death removes from the ranking.
	tr2 := New(Options{Interval: sim.Hour, Decay: 0})
	tr2.EnableRanking()
	x := tr2.UserID("x")
	tr2.RecordNow(x, 5)
	tr2.Advance(sim.Hour)
	if got := tr2.Top(); got != None {
		t.Errorf("Top after death = %d, want None", got)
	}
}
