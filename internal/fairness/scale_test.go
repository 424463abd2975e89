package fairness

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fairtree"
	"repro/internal/job"
	"repro/internal/sim"
)

// loopAdvance is the per-interval reference the closed-form
// Tracker.Advance replaced, applied to a plain map: one decay
// multiplication and truncation per elapsed interval.
func loopAdvance(usage map[EntityKey]sim.Duration, intervalStart *sim.Time, interval sim.Duration, decay float64, now sim.Time) {
	for now >= *intervalStart+interval {
		*intervalStart += interval
		if decay <= 0 {
			clear(usage)
			continue
		}
		for k, v := range usage {
			nv := sim.Duration(float64(v) * decay)
			if nv <= 0 {
				delete(usage, k)
			} else {
				usage[k] = nv
			}
		}
	}
}

// TestAdvanceClosedFormEquivalence proves the closed-form decay^k roll
// exactly matches the per-interval loop for k ∈ {0, 1, 7, 1000} and
// decay ∈ {0, 0.5, 1}: 0 clears, 1 is the identity, and 0.5 halves
// exactly in float64 with floor(floor(v/2)/2) = floor(v/4) on the
// integer durations.
func TestAdvanceClosedFormEquivalence(t *testing.T) {
	for _, decay := range []float64{0, 0.5, 1} {
		for _, k := range []int64{0, 1, 7, 1000} {
			cfg := NewConfig(TargetDelay)
			cfg.Interval = sim.Hour
			cfg.Decay = decay
			tr := NewTracker(cfg, 0)
			oracle := make(map[EntityKey]sim.Duration)
			oracleStart := sim.Time(0)

			rng := rand.New(rand.NewSource(k ^ int64(decay*2)))
			for i := 0; i < 20; i++ {
				u := fmt.Sprintf("u%02d", i)
				g := fmt.Sprintf("g%d", i%4)
				delay := sim.Duration(rng.Intn(3_600_000)+1) * sim.Millisecond
				cred := job.Credentials{User: u, Group: g}
				tr.Charge(job.Credentials{User: "evolver"}, []JobDelay{{Job: &job.Job{ID: job.ID(i + 1), Cred: cred}, Delay: delay}})
				oracle[EntityKey{KindUser, u}] += delay
				oracle[EntityKey{KindGroup, g}] += delay
			}

			now := sim.Time(k) * sim.Time(sim.Hour)
			tr.Advance(now)
			loopAdvance(oracle, &oracleStart, sim.Hour, decay, now)

			if tr.IntervalStart() != oracleStart {
				t.Errorf("decay=%g k=%d: intervalStart %d vs oracle %d", decay, k, tr.IntervalStart(), oracleStart)
			}
			for i := 0; i < 20; i++ {
				for _, key := range []EntityKey{
					{KindUser, fmt.Sprintf("u%02d", i)},
					{KindGroup, fmt.Sprintf("g%d", i%4)},
				} {
					if got, want := tr.EntityUsage(key), oracle[key]; got != want {
						t.Errorf("decay=%g k=%d: %s = %d, oracle %d", decay, k, key, got, want)
					}
				}
			}
		}
	}
}

// TestAdvanceDecayOneBoundary pins the decay=1 identity: budgets never
// decay, the interval start still rolls, and a charge straddling many
// idle intervals survives bit-for-bit.
func TestAdvanceDecayOneBoundary(t *testing.T) {
	cfg := NewConfig(TargetDelay)
	cfg.Interval = sim.Hour
	cfg.Decay = 1
	cfg.Set(KindUser, "u", Limits{TargetDelayTime: 10 * sim.Minute})
	tr := NewTracker(cfg, 0)
	victim := mkJob(1, "u", "g")
	tr.Charge(job.Credentials{User: "e"}, []JobDelay{{Job: victim, Delay: 9 * sim.Minute}})
	tr.Advance(1000 * sim.Hour)
	if got := tr.EntityUsage(EntityKey{KindUser, "u"}); got != 9*sim.Minute {
		t.Errorf("decay=1 usage = %s, want 9m", sim.FormatTime(got))
	}
	if tr.IntervalStart() != 1000*sim.Hour {
		t.Errorf("intervalStart = %d", tr.IntervalStart())
	}
	// The never-forgotten budget still rejects further delays.
	if d := tr.Evaluate(job.Credentials{User: "e"}, []JobDelay{{Job: victim, Delay: 2 * sim.Minute}}); d.Allowed {
		t.Error("decay=1 budget must persist across intervals")
	}
}

// TestForgetJobAfterRequeue models a preempted-and-requeued job: the
// single-job delay budget must reset (it is a new queue residence),
// while the entity's interval budget keeps the charge.
func TestForgetJobAfterRequeue(t *testing.T) {
	cfg := NewConfig(SingleAndTargetDelay)
	cfg.Set(KindUser, "u", Limits{SingleDelayTime: 30 * sim.Minute, TargetDelayTime: 50 * sim.Minute})
	tr := NewTracker(cfg, 0)
	e := job.Credentials{User: "e"}
	victim := mkJob(1, "u", "g")
	tr.Charge(e, []JobDelay{{Job: victim, Delay: 25 * sim.Minute}})
	// 10 more minutes would break the 30m single-job limit.
	if d := tr.Evaluate(e, []JobDelay{{Job: victim, Delay: 10 * sim.Minute}}); d.Allowed {
		t.Fatal("should exceed single-job limit before requeue")
	}
	// Job starts, is preempted, comes back with the same ID.
	tr.ForgetJob(1)
	if d := tr.Evaluate(e, []JobDelay{{Job: victim, Delay: 10 * sim.Minute}}); !d.Allowed {
		t.Errorf("fresh queue residence should reset the single-job budget: %s", d.Reason)
	}
	// The user's interval budget did not reset: 25m is still charged,
	// so 30m more breaks the 50m target.
	if d := tr.Evaluate(e, []JobDelay{{Job: victim, Delay: 30 * sim.Minute}}); d.Allowed {
		t.Error("entity target budget must survive ForgetJob")
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{None, SingleJobDelay, TargetDelay, SingleAndTargetDelay} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%s) = %v, %v", p, got, err)
		}
	}
}

// TestSameUserExemptionVsGroupLimits: the same-user exemption keys on
// the user alone — it must win even when the victim's group carries a
// hard veto and an exhausted budget.
func TestSameUserExemptionVsGroupLimits(t *testing.T) {
	cfg := NewConfig(SingleAndTargetDelay)
	cfg.Set(KindGroup, "locked", Limits{PermSet: true, Perm: false, SingleDelayTime: sim.Second, TargetDelayTime: sim.Second})
	tr := NewTracker(cfg, 0)
	alice := job.Credentials{User: "alice", Group: "other"}
	victim := mkJob(1, "alice", "locked")
	if d := tr.Evaluate(alice, []JobDelay{{Job: victim, Delay: sim.Hour}}); !d.Allowed {
		t.Errorf("same-user exemption must beat group veto: %s", d.Reason)
	}
	tr.Charge(alice, []JobDelay{{Job: victim, Delay: sim.Hour}})
	if tr.JobUsage(1) != 0 || tr.TotalCharged(KindGroup) != 0 {
		t.Error("exempt delay must not charge job or group")
	}
	// A different user delaying the same job hits the group veto.
	if d := tr.Evaluate(job.Credentials{User: "bob"}, []JobDelay{{Job: victim, Delay: sim.Second}}); d.Allowed {
		t.Error("group veto must apply to non-exempt requesters")
	}
}

// TestShareTreeRollup: with a share tree attached, a delay charged to
// a user also counts against every ancestor node's budget; over the
// degenerate flat tree nothing changes.
func TestShareTreeRollup(t *testing.T) {
	tree := fairtree.New(fairtree.Options{})
	if err := tree.ApplySpec(&fairtree.Spec{Nodes: []fairtree.SpecNode{
		{Path: "org.team", Users: []string{"alice", "bob"}},
	}}); err != nil {
		t.Fatal(err)
	}
	tree.UserID("alice")
	tree.UserID("bob")

	cfg := NewConfig(TargetDelay)
	cfg.Set(KindFSNode, "org", Limits{TargetDelayTime: 10 * sim.Minute})
	tr := NewTracker(cfg, 0)
	tr.AttachShareTree(tree)
	e := job.Credentials{User: "evolver"}
	tr.Charge(e, []JobDelay{{Job: mkJob(1, "alice", "g"), Delay: 4 * sim.Minute}})
	tr.Charge(e, []JobDelay{{Job: mkJob(2, "bob", "g"), Delay: 4 * sim.Minute}})
	if got := tr.EntityUsage(EntityKey{KindFSNode, "org"}); got != 8*sim.Minute {
		t.Errorf("org rollup = %s, want 8m", sim.FormatTime(got))
	}
	if got := tr.EntityUsage(EntityKey{KindFSNode, "org.team"}); got != 8*sim.Minute {
		t.Errorf("org.team rollup = %s, want 8m", sim.FormatTime(got))
	}
	if got := tr.TotalCharged(KindFSNode); got != 16*sim.Minute {
		t.Errorf("TotalCharged(fsnode) = %s", sim.FormatTime(got))
	}
	// Alice and bob have separate user budgets, but the shared org
	// budget (8m of 10m used) rejects 3 more minutes against either.
	if d := tr.Evaluate(e, []JobDelay{{Job: mkJob(3, "bob", "g"), Delay: 3 * sim.Minute}}); d.Allowed {
		t.Error("org budget must reject rollup overflow")
	}
	// An un-homed user does not touch tree budgets.
	tr.Charge(e, []JobDelay{{Job: mkJob(4, "carol", "g"), Delay: 4 * sim.Minute}})
	if got := tr.TotalCharged(KindFSNode); got != 16*sim.Minute {
		t.Error("unknown user must not roll up")
	}

	// Degenerate flat tree: no fsnode keys at all.
	flat := fairtree.New(fairtree.Options{})
	flat.UserID("alice")
	tr2 := NewTracker(NewConfig(TargetDelay), 0)
	tr2.AttachShareTree(flat)
	tr2.Charge(e, []JobDelay{{Job: mkJob(5, "alice", "g"), Delay: sim.Minute}})
	if got := tr2.TotalCharged(KindFSNode); got != 0 {
		t.Error("flat tree must add no fsnode charges")
	}
}

// TestShareTreeRollupBeforeFirstCharge: a user's leaf is created only
// when the user is first charged usage, but an FSTREE-homed user's
// delays count against the home's ancestors before that — otherwise a
// user whose jobs are delayed before any of them has completed escapes
// the org budget. Looking the home up must not create the leaf.
func TestShareTreeRollupBeforeFirstCharge(t *testing.T) {
	tree := fairtree.New(fairtree.Options{})
	if err := tree.ApplySpec(&fairtree.Spec{Nodes: []fairtree.SpecNode{
		{Path: "org.team", Users: []string{"alice"}},
	}}); err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(TargetDelay)
	cfg.Set(KindFSNode, "org", Limits{TargetDelayTime: 10 * sim.Minute})
	tr := NewTracker(cfg, 0)
	tr.AttachShareTree(tree)
	e := job.Credentials{User: "evolver"}
	tr.Charge(e, []JobDelay{{Job: mkJob(1, "alice", "g"), Delay: 8 * sim.Minute}})
	if got := tr.EntityUsage(EntityKey{KindFSNode, "org"}); got != 8*sim.Minute {
		t.Errorf("org rollup = %s, want 8m", sim.FormatTime(got))
	}
	if d := tr.Evaluate(e, []JobDelay{{Job: mkJob(2, "alice", "g"), Delay: 8 * sim.Minute}}); d.Allowed {
		t.Error("org budget (8m of 10m used) must reject 8 more minutes")
	}
	if _, ok := tree.LookupUser("alice"); ok {
		t.Error("the rollup created alice's leaf")
	}
}

// evaluateFixture builds a loaded tracker for the zero-alloc guards
// and benchmarks: tree-attached credentials, limits at several levels,
// and a warm scratch state.
func evaluateFixture() (*Tracker, job.Credentials, []JobDelay) {
	tree := fairtree.New(fairtree.Options{})
	_ = tree.ApplySpec(&fairtree.Spec{Nodes: []fairtree.SpecNode{
		{Path: "org.team", Users: []string{"u1", "u2", "u3"}},
	}})
	for _, u := range []string{"u1", "u2", "u3"} {
		tree.UserID(u)
	}
	cfg := NewConfig(SingleAndTargetDelay)
	cfg.Set(KindUser, "u1", Limits{SingleDelayTime: 1000 * sim.Hour, TargetDelayTime: 10000 * sim.Hour})
	cfg.Set(KindGroup, "g", Limits{TargetDelayTime: 10000 * sim.Hour})
	cfg.Set(KindFSNode, "org", Limits{TargetDelayTime: 10000 * sim.Hour})
	tr := NewTracker(cfg, 0)
	tr.AttachShareTree(tree)
	delays := []JobDelay{
		{Job: mkJob(1, "u1", "g"), Delay: sim.Second},
		{Job: mkJob(2, "u2", "g"), Delay: 2 * sim.Second},
		{Job: mkJob(3, "u3", "g"), Delay: sim.Second},
	}
	return tr, job.Credentials{User: "evolver"}, delays
}

// TestEvaluateZeroAllocSteadyState is the alloc-regression guard for
// the Evaluate hot path: after warmup, repeated evaluations must not
// allocate.
func TestEvaluateZeroAllocSteadyState(t *testing.T) {
	tr, e, delays := evaluateFixture()
	tr.Evaluate(e, delays) // warm scratch
	if avg := testing.AllocsPerRun(100, func() {
		if d := tr.Evaluate(e, delays); !d.Allowed {
			t.Fatal(d.Reason)
		}
	}); avg != 0 {
		t.Errorf("Evaluate allocates %.1f/op steady-state, want 0", avg)
	}
}

// TestChargeZeroAllocSteadyState guards the Charge hot path the same
// way. Map growth allocates, so the fixture pre-charges to settle the
// buckets.
func TestChargeZeroAllocSteadyState(t *testing.T) {
	tr, e, delays := evaluateFixture()
	for i := 0; i < 10; i++ {
		tr.Charge(e, delays)
	}
	if avg := testing.AllocsPerRun(100, func() {
		tr.Charge(e, delays)
	}); avg != 0 {
		t.Errorf("Charge allocates %.1f/op steady-state, want 0", avg)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	tr, e, delays := evaluateFixture()
	tr.Evaluate(e, delays)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Evaluate(e, delays)
	}
}

func BenchmarkCharge(b *testing.B) {
	tr, e, delays := evaluateFixture()
	for i := 0; i < 10; i++ {
		tr.Charge(e, delays)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Charge(e, delays)
	}
}
