package fairness

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/sim"
)

func mkJob(id int, user, group string) *job.Job {
	return &job.Job{ID: job.ID(id), Cred: job.Credentials{User: user, Group: group}}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"NONE":                    None,
		"":                        None,
		"dfssinglejobdelay":       SingleJobDelay,
		"DFSTARGETDELAY":          TargetDelay,
		"DFSSingleAndTargetDelay": SingleAndTargetDelay,
		"DFSSINGLETARGETDELAY":    SingleAndTargetDelay, // paper's §III-D alias
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy should error")
	}
}

func TestStringers(t *testing.T) {
	if None.String() != "NONE" || SingleAndTargetDelay.String() != "DFSSINGLEANDTARGETDELAY" {
		t.Error("policy stringer")
	}
	if Policy(42).String() != "policy(42)" {
		t.Error("unknown policy stringer")
	}
	if KindUser.String() != "user" || KindQoS.String() != "qos" {
		t.Error("kind stringer")
	}
	if EntityKind(9).String() != "kind(9)" {
		t.Error("unknown kind stringer")
	}
	k := EntityKey{KindGroup, "cfd"}
	if k.String() != "group:cfd" {
		t.Errorf("key stringer = %q", k)
	}
}

func TestPolicyNoneAllowsEverything(t *testing.T) {
	tr := NewTracker(NewConfig(None), 0)
	d := tr.Evaluate(job.Credentials{User: "evolver"},
		[]JobDelay{{Job: mkJob(1, "victim", "g"), Delay: 100 * sim.Hour}})
	if !d.Allowed {
		t.Errorf("None policy must allow: %s", d.Reason)
	}
}

func TestDynDelayPermVeto(t *testing.T) {
	cfg := NewConfig(TargetDelay)
	cfg.Set(KindUser, "user02", Limits{PermSet: true, Perm: false})
	tr := NewTracker(cfg, 0)
	d := tr.Evaluate(job.Credentials{User: "evolver"},
		[]JobDelay{{Job: mkJob(1, "user02", "g"), Delay: sim.Second}})
	if d.Allowed {
		t.Error("DFSDynDelayPerm=0 user must veto any delay")
	}
	// Group-level veto (Fig. 6 group06).
	cfg2 := NewConfig(TargetDelay)
	cfg2.Set(KindGroup, "group06", Limits{PermSet: true, Perm: false})
	tr2 := NewTracker(cfg2, 0)
	d2 := tr2.Evaluate(job.Credentials{User: "evolver"},
		[]JobDelay{{Job: mkJob(1, "anyone", "group06"), Delay: sim.Second}})
	if d2.Allowed {
		t.Error("group-level perm veto should apply")
	}
	// Zero delay to a vetoed user is fine.
	d3 := tr.Evaluate(job.Credentials{User: "evolver"},
		[]JobDelay{{Job: mkJob(1, "user02", "g"), Delay: 0}})
	if !d3.Allowed {
		t.Error("zero delay should always pass")
	}
}

func TestSameUserExemption(t *testing.T) {
	cfg := NewConfig(SingleAndTargetDelay)
	cfg.Set(KindUser, "alice", Limits{PermSet: true, Perm: false, SingleDelayTime: sim.Second})
	tr := NewTracker(cfg, 0)
	// Alice's evolving job delays Alice's own queued job: exempt even
	// though alice is vetoed and limited.
	d := tr.Evaluate(job.Credentials{User: "alice"},
		[]JobDelay{{Job: mkJob(1, "alice", "g"), Delay: sim.Hour}})
	if !d.Allowed {
		t.Errorf("same-user delay must be exempt: %s", d.Reason)
	}
	tr.Charge(job.Credentials{User: "alice"},
		[]JobDelay{{Job: mkJob(1, "alice", "g"), Delay: sim.Hour}})
	if tr.JobUsage(1) != 0 {
		t.Error("same-user charge must be skipped")
	}
}

func TestSingleJobDelayLimit(t *testing.T) {
	cfg := NewConfig(SingleJobDelay)
	cfg.Set(KindUser, "user03", Limits{PermSet: true, Perm: true, SingleDelayTime: 30 * sim.Minute})
	tr := NewTracker(cfg, 0)
	evolver := job.Credentials{User: "user06"}
	victim := mkJob(1, "user03", "g")

	// 20 minutes: fine.
	if d := tr.Evaluate(evolver, []JobDelay{{Job: victim, Delay: 20 * sim.Minute}}); !d.Allowed {
		t.Fatalf("20m should pass: %s", d.Reason)
	}
	tr.Charge(evolver, []JobDelay{{Job: victim, Delay: 20 * sim.Minute}})
	// Another 20 minutes on the same job: 40 > 30, reject.
	if d := tr.Evaluate(evolver, []JobDelay{{Job: victim, Delay: 20 * sim.Minute}}); d.Allowed {
		t.Fatal("accumulated 40m on a 30m single-job limit should reject")
	}
	// 10 more minutes exactly hits the limit: allowed (limit inclusive).
	if d := tr.Evaluate(evolver, []JobDelay{{Job: victim, Delay: 10 * sim.Minute}}); !d.Allowed {
		t.Fatalf("exactly at limit should pass: %s", d.Reason)
	}
	// A different job of the same user starts fresh.
	victim2 := mkJob(2, "user03", "g")
	if d := tr.Evaluate(evolver, []JobDelay{{Job: victim2, Delay: 25 * sim.Minute}}); !d.Allowed {
		t.Fatalf("fresh job under limit should pass: %s", d.Reason)
	}
	// SingleDelayTime=0 means unlimited (paper Fig. 6, user01).
	cfg.Set(KindUser, "user01", Limits{PermSet: true, Perm: true, SingleDelayTime: 0})
	if d := tr.Evaluate(evolver, []JobDelay{{Job: mkJob(3, "user01", "g"), Delay: 100 * sim.Hour}}); !d.Allowed {
		t.Fatalf("0 = unlimited single delay: %s", d.Reason)
	}
}

func TestTargetDelayLimit(t *testing.T) {
	cfg := NewConfig(TargetDelay)
	cfg.Set(KindUser, "user01", Limits{TargetDelayTime: sim.Hour})
	tr := NewTracker(cfg, 0)
	evolver := job.Credentials{User: "user06"}

	// Two different jobs of user01 delayed 40m each in one grant: the
	// cumulative 80m exceeds the 1h budget.
	delays := []JobDelay{
		{Job: mkJob(1, "user01", "g"), Delay: 40 * sim.Minute},
		{Job: mkJob(2, "user01", "g"), Delay: 40 * sim.Minute},
	}
	if d := tr.Evaluate(evolver, delays); d.Allowed {
		t.Fatal("cumulative 80m over 60m budget must reject")
	}
	// 30m + 30m exactly fills the budget.
	delays = []JobDelay{
		{Job: mkJob(1, "user01", "g"), Delay: 30 * sim.Minute},
		{Job: mkJob(2, "user01", "g"), Delay: 30 * sim.Minute},
	}
	if d := tr.Evaluate(evolver, delays); !d.Allowed {
		t.Fatalf("exactly filling budget should pass: %s", d.Reason)
	}
	tr.Charge(evolver, delays)
	// Any further delay this interval rejects.
	if d := tr.Evaluate(evolver, []JobDelay{{Job: mkJob(3, "user01", "g"), Delay: sim.Second}}); d.Allowed {
		t.Fatal("budget exhausted, must reject")
	}
	if got := tr.EntityUsage(EntityKey{KindUser, "user01"}); got != sim.Hour {
		t.Errorf("usage = %s, want 1h", sim.FormatTime(got))
	}
}

// TestTargetRefusalNamesFirstEntity: when several entities would
// exceed their target budgets at once, the refusal names the first in
// (kind, name) order, whatever order the charged entities were
// gathered in.
func TestTargetRefusalNamesFirstEntity(t *testing.T) {
	cfg := NewConfig(TargetDelay)
	var delays []JobDelay
	for i, u := range []string{"u5", "u3", "u1", "u4", "u2", "u6"} {
		cfg.Set(KindUser, u, Limits{TargetDelayTime: sim.Hour})
		delays = append(delays, JobDelay{Job: mkJob(i+1, u, "g"), Delay: 2 * sim.Hour})
	}
	tr := NewTracker(cfg, 0)
	for range 20 {
		d := tr.Evaluate(job.Credentials{User: "evolver"}, delays)
		if d.Allowed || !strings.HasPrefix(d.Reason, "user:u1 ") {
			t.Fatalf("refusal %q, want one naming user:u1", d.Reason)
		}
	}
}

func TestGroupTargetAccumulatesAcrossUsers(t *testing.T) {
	// Fig. 6 group05: group budget caps the sum over all member users.
	cfg := NewConfig(TargetDelay)
	cfg.Set(KindGroup, "group05", Limits{TargetDelayTime: 4 * sim.Hour})
	tr := NewTracker(cfg, 0)
	evolver := job.Credentials{User: "user06"}
	tr.Charge(evolver, []JobDelay{{Job: mkJob(1, "a", "group05"), Delay: 3 * sim.Hour}})
	d := tr.Evaluate(evolver, []JobDelay{{Job: mkJob(2, "b", "group05"), Delay: 2 * sim.Hour}})
	if d.Allowed {
		t.Error("group budget must accumulate across member users")
	}
	d = tr.Evaluate(evolver, []JobDelay{{Job: mkJob(2, "b", "group05"), Delay: sim.Hour}})
	if !d.Allowed {
		t.Errorf("within remaining group budget: %s", d.Reason)
	}
}

func TestMostRestrictiveAcrossLevels(t *testing.T) {
	// Paper: "When user and group limits are specified for a user and
	// his group, the most restrictive limits are used."
	cfg := NewConfig(SingleJobDelay)
	cfg.Set(KindUser, "u", Limits{SingleDelayTime: sim.Hour})
	cfg.Set(KindGroup, "g", Limits{SingleDelayTime: 10 * sim.Minute})
	tr := NewTracker(cfg, 0)
	evolver := job.Credentials{User: "e"}
	if d := tr.Evaluate(evolver, []JobDelay{{Job: mkJob(1, "u", "g"), Delay: 30 * sim.Minute}}); d.Allowed {
		t.Error("group's tighter 10m limit must win over user's 1h")
	}
	if d := tr.Evaluate(evolver, []JobDelay{{Job: mkJob(1, "u", "g"), Delay: 5 * sim.Minute}}); !d.Allowed {
		t.Errorf("5m under the 10m limit should pass: %s", d.Reason)
	}
}

func TestIntervalDecay(t *testing.T) {
	// Paper's worked example: limit 4800 s, current delay 3600 s,
	// decay 0.2 → next interval starts at 720 s, so up to 4080 s more.
	cfg := NewConfig(TargetDelay)
	cfg.Interval = 6 * sim.Hour
	cfg.Decay = 0.2
	cfg.Set(KindUser, "u", Limits{TargetDelayTime: 4800 * sim.Second})
	tr := NewTracker(cfg, 0)
	evolver := job.Credentials{User: "e"}
	tr.Charge(evolver, []JobDelay{{Job: mkJob(1, "u", "g"), Delay: 3600 * sim.Second}})

	tr.Advance(6*sim.Hour + sim.Second)
	if got := tr.EntityUsage(EntityKey{KindUser, "u"}); got != 720*sim.Second {
		t.Fatalf("decayed usage = %s, want 720s", sim.FormatTime(got))
	}
	if d := tr.Evaluate(evolver, []JobDelay{{Job: mkJob(2, "u", "g"), Delay: 4080 * sim.Second}}); !d.Allowed {
		t.Errorf("4080s fits the decayed budget: %s", d.Reason)
	}
	if d := tr.Evaluate(evolver, []JobDelay{{Job: mkJob(2, "u", "g"), Delay: 4081 * sim.Second}}); d.Allowed {
		t.Error("4081s exceeds the decayed budget")
	}
}

func TestAdvanceMultipleIntervals(t *testing.T) {
	cfg := NewConfig(TargetDelay)
	cfg.Interval = sim.Hour
	cfg.Decay = 0.5
	cfg.Set(KindUser, "u", Limits{TargetDelayTime: sim.Hour})
	tr := NewTracker(cfg, 0)
	tr.Charge(job.Credentials{User: "e"}, []JobDelay{{Job: mkJob(1, "u", "g"), Delay: 1600 * sim.Second}})
	tr.Advance(3 * sim.Hour) // three boundaries: 1600 -> 800 -> 400 -> 200
	if got := tr.EntityUsage(EntityKey{KindUser, "u"}); got != 200*sim.Second {
		t.Errorf("after 3 decays usage = %s, want 200s", sim.FormatTime(got))
	}
	if tr.IntervalStart() != 3*sim.Hour {
		t.Errorf("interval start = %s", sim.FormatTime(tr.IntervalStart()))
	}
	// Zero decay clears usage at the boundary.
	cfg0 := NewConfig(TargetDelay)
	cfg0.Interval = sim.Hour
	cfg0.Decay = 0
	tr0 := NewTracker(cfg0, 0)
	tr0.Charge(job.Credentials{User: "e"}, []JobDelay{{Job: mkJob(1, "u", "g"), Delay: sim.Hour}})
	tr0.Advance(sim.Hour)
	if tr0.EntityUsage(EntityKey{KindUser, "u"}) != 0 {
		t.Error("decay 0 must clear usage")
	}
}

func TestForgetJob(t *testing.T) {
	tr := NewTracker(NewConfig(SingleJobDelay), 0)
	tr.Charge(job.Credentials{User: "e"}, []JobDelay{{Job: mkJob(1, "u", "g"), Delay: sim.Minute}})
	if tr.JobUsage(1) != sim.Minute {
		t.Fatal("charge not recorded")
	}
	tr.ForgetJob(1)
	if tr.JobUsage(1) != 0 {
		t.Error("ForgetJob must clear per-job usage")
	}
}

func TestTotalCharged(t *testing.T) {
	tr := NewTracker(NewConfig(TargetDelay), 0)
	e := job.Credentials{User: "e"}
	tr.Charge(e, []JobDelay{
		{Job: mkJob(1, "a", "g1"), Delay: sim.Minute},
		{Job: mkJob(2, "b", "g2"), Delay: 2 * sim.Minute},
	})
	if got := tr.TotalCharged(KindUser); got != 3*sim.Minute {
		t.Errorf("TotalCharged(user) = %s", sim.FormatTime(got))
	}
	if got := tr.TotalCharged(KindGroup); got != 3*sim.Minute {
		t.Errorf("TotalCharged(group) = %s", sim.FormatTime(got))
	}
	if got := tr.TotalCharged(KindQoS); got != 0 {
		t.Errorf("TotalCharged(qos) = %s", sim.FormatTime(got))
	}
}

func TestNilAndDefaultConfig(t *testing.T) {
	tr := NewTracker(nil, 0)
	if tr.Config().Policy != None {
		t.Error("nil config should default to None")
	}
	cfg := &Config{Policy: TargetDelay} // no interval set
	tr2 := NewTracker(cfg, 0)
	if tr2.Config().Interval != sim.Hour {
		t.Error("zero interval should default to 1h")
	}
}

// Property: Evaluate never mutates tracker state, and a sequence of
// Charge calls accumulates exactly the sum of non-exempt delays.
func TestChargeAccumulationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := NewConfig(SingleAndTargetDelay)
		cfg.Set(KindUser, "victim", Limits{TargetDelayTime: 1000 * sim.Hour, SingleDelayTime: 1000 * sim.Hour})
		tr := NewTracker(cfg, 0)
		evolver := job.Credentials{User: "evolver"}
		var want sim.Duration
		for i := 0; i < 20; i++ {
			d := sim.Duration(rng.Intn(1000)) * sim.Second
			user := "victim"
			if rng.Intn(4) == 0 {
				user = "evolver" // exempt
			}
			jd := []JobDelay{{Job: mkJob(i, user, "g"), Delay: d}}
			before := tr.EntityUsage(EntityKey{KindUser, "victim"})
			tr.Evaluate(evolver, jd)
			if tr.EntityUsage(EntityKey{KindUser, "victim"}) != before {
				return false // Evaluate mutated state
			}
			tr.Charge(evolver, jd)
			if user == "victim" {
				want += d
			}
		}
		return tr.EntityUsage(EntityKey{KindUser, "victim"}) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: decay is monotone — advancing intervals never increases
// usage when decay ≤ 1.
func TestDecayMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := NewConfig(TargetDelay)
		cfg.Interval = sim.Hour
		cfg.Decay = rng.Float64()
		tr := NewTracker(cfg, 0)
		tr.Charge(job.Credentials{User: "e"},
			[]JobDelay{{Job: mkJob(1, "u", "g"), Delay: sim.Duration(rng.Intn(100000)) * sim.Second}})
		prev := tr.EntityUsage(EntityKey{KindUser, "u"})
		for i := 1; i <= 5; i++ {
			tr.Advance(sim.Time(i) * sim.Hour)
			cur := tr.EntityUsage(EntityKey{KindUser, "u"})
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
