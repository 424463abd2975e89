package config

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/fairness"
	"repro/internal/sim"
)

// fig6 is the exact configuration shown in Fig. 6 of the paper.
const fig6 = `
DFSPOLICY         DFSSINGLEANDTARGETDELAY
DFSINTERVAL       06:00:00
DFSDECAY          0.4
USERCFG[user01]   DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=3600 \
                  DFSSINGLEDELAYTIME=0
USERCFG[user02]   DFSDYNDELAYPERM=0
USERCFG[user03]   DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=0 \
                  DFSSINGLEDELAYTIME=00:30:00
USERCFG[user04]   DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=02:00:00 \
                  DFSSINGLEDELAYTIME=00:15:00
GROUPCFG[group05] DFSTARGETDELAYTIME=04:00:00
GROUPCFG[group06] DFSDYNDELAYPERM=0
`

func TestParseFig6(t *testing.T) {
	cfg, err := Parse(fig6)
	if err != nil {
		t.Fatal(err)
	}
	f := cfg.Fairness
	if f.Policy != fairness.SingleAndTargetDelay {
		t.Errorf("policy = %v", f.Policy)
	}
	if f.Interval != 6*sim.Hour {
		t.Errorf("interval = %v", f.Interval)
	}
	if f.Decay != 0.4 {
		t.Errorf("decay = %v", f.Decay)
	}
	u1 := f.Entities[fairness.EntityKey{Kind: fairness.KindUser, Name: "user01"}]
	if !u1.PermSet || !u1.Perm || u1.TargetDelayTime != 3600*sim.Second || u1.SingleDelayTime != 0 {
		t.Errorf("user01 = %+v", u1)
	}
	u2 := f.Entities[fairness.EntityKey{Kind: fairness.KindUser, Name: "user02"}]
	if !u2.PermSet || u2.Perm {
		t.Errorf("user02 = %+v", u2)
	}
	u3 := f.Entities[fairness.EntityKey{Kind: fairness.KindUser, Name: "user03"}]
	if u3.SingleDelayTime != 30*sim.Minute || u3.TargetDelayTime != 0 {
		t.Errorf("user03 = %+v", u3)
	}
	u4 := f.Entities[fairness.EntityKey{Kind: fairness.KindUser, Name: "user04"}]
	if u4.TargetDelayTime != 2*sim.Hour || u4.SingleDelayTime != 15*sim.Minute {
		t.Errorf("user04 = %+v", u4)
	}
	g5 := f.Entities[fairness.EntityKey{Kind: fairness.KindGroup, Name: "group05"}]
	if g5.TargetDelayTime != 4*sim.Hour {
		t.Errorf("group05 = %+v", g5)
	}
	g6 := f.Entities[fairness.EntityKey{Kind: fairness.KindGroup, Name: "group06"}]
	if !g6.PermSet || g6.Perm {
		t.Errorf("group06 = %+v", g6)
	}
}

func TestParseSchedulerParams(t *testing.T) {
	cfg, err := Parse(`
# comment line
RESERVATIONDEPTH       5
RESERVATIONDELAYDEPTH  7
BACKFILLPOLICY         FIRSTFIT
PREEMPTPOLICY          REQUEUE
RMPOLLINTERVAL         60
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ReservationDepth != 5 || cfg.ReservationDelayDepth != 7 {
		t.Errorf("depths = %d/%d", cfg.ReservationDepth, cfg.ReservationDelayDepth)
	}
	if cfg.BackfillPolicy != "FIRSTFIT" || cfg.PreemptPolicy != "REQUEUE" {
		t.Errorf("policies = %s/%s", cfg.BackfillPolicy, cfg.PreemptPolicy)
	}
	if cfg.RMPollInterval != 60*sim.Second {
		t.Errorf("poll = %v", cfg.RMPollInterval)
	}
}

func TestDefaults(t *testing.T) {
	cfg := Default()
	if cfg.ReservationDepth != 5 || cfg.ReservationDelayDepth != 5 {
		t.Error("paper defaults are depth 5/5")
	}
	if cfg.Fairness.Policy != fairness.None {
		t.Error("default policy should be NONE")
	}
	empty, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if empty.ReservationDepth != 5 {
		t.Error("empty config should keep defaults")
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Duration
		ok   bool
	}{
		{"3600", 3600 * sim.Second, true},
		{"0", 0, true},
		{"00:30:00", 30 * sim.Minute, true},
		{"02:00:00", 2 * sim.Hour, true},
		{"45:30", 45*sim.Minute + 30*sim.Second, true},
		{"1.5", 1500, true},
		{"", 0, false},
		{"x", 0, false},
		{"-5", 0, false},
		{"1:2:3:4", 0, false},
		{"1:-2", 0, false},
		{"1e9", 1e12, true},
		{"99999999999999:00:00", 0, false},
		{"9223372036854775807", 0, false},
		{"NaN", 0, false},
		{"Inf", 0, false},
		{"-Inf", 0, false},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseDuration(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestParseDurationEndOfTime: the longest whole-second duration short
// of sim.Forever parses in both forms — exactly as HH:MM:SS, to within
// float precision as seconds — and a second more does not.
func TestParseDurationEndOfTime(t *testing.T) {
	last := sim.Forever / sim.Second * sim.Second
	if got, err := ParseDuration(FormatDuration(last)); err != nil || got != last {
		t.Errorf("ParseDuration(%q) = %v, %v; want %v", FormatDuration(last), got, err, last)
	}
	secs := strconv.FormatInt(int64(last/sim.Second), 10)
	if got, err := ParseDuration(secs); err != nil || got < last-sim.Second || got > sim.Forever {
		t.Errorf("ParseDuration(%q) = %v, %v; want about %v", secs, got, err, last)
	}
	for _, s := range []string{FormatDuration(last + sim.Second), strconv.FormatInt(int64(last/sim.Second)+1, 10)} {
		if got, err := ParseDuration(s); err == nil {
			t.Errorf("ParseDuration(%q) = %v, want an error", s, got)
		}
	}
}

func TestFormatDurationRoundTrip(t *testing.T) {
	for _, d := range []sim.Duration{0, sim.Second, 90 * sim.Second, 6 * sim.Hour, 26*sim.Hour + 3*sim.Minute} {
		s := FormatDuration(d)
		got, err := ParseDuration(s)
		if err != nil || got != d {
			t.Errorf("round trip %v -> %q -> %v (%v)", d, s, got, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"BOGUSKEY 1",
		"DFSPOLICY",
		"DFSPOLICY whatever",
		"DFSDECAY 1.5",
		"DFSDECAY x",
		"DFSINTERVAL x",
		"RESERVATIONDEPTH -1",
		"RESERVATIONDEPTH x",
		"RESERVATIONDELAYDEPTH -2",
		"BACKFILLPOLICY SOMETIMES",
		"PREEMPTPOLICY KILL",
		"RMPOLLINTERVAL zz",
		"USERCFG[u] NOVALUE",
		"USERCFG[u] DFSDYNDELAYPERM=2",
		"USERCFG[u] DFSSINGLEDELAYTIME=xx",
		"USERCFG[u] UNKNOWN=1",
		"USERCFG[ DFSDYNDELAYPERM=1",
		"USERCFG[] DFSDYNDELAYPERM=1",
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("Parse(%q) error should carry line number: %v", text, err)
		}
	}
}

func TestEntityCfgMerging(t *testing.T) {
	// Two lines for the same user merge rather than overwrite.
	cfg, err := Parse(`
USERCFG[alice] DFSDYNDELAYPERM=1
USERCFG[alice] DFSTARGETDELAYTIME=100
`)
	if err != nil {
		t.Fatal(err)
	}
	a := cfg.Fairness.Entities[fairness.EntityKey{Kind: fairness.KindUser, Name: "alice"}]
	if !a.PermSet || !a.Perm || a.TargetDelayTime != 100*sim.Second {
		t.Errorf("merged = %+v", a)
	}
}

func TestAllEntityKinds(t *testing.T) {
	cfg, err := Parse(`
ACCOUNTCFG[proj1] DFSTARGETDELAYTIME=10
CLASSCFG[batch]   DFSSINGLEDELAYTIME=20
QOSCFG[gold]      DFSDYNDELAYPERM=0
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fairness.Entities[fairness.EntityKey{Kind: fairness.KindAccount, Name: "proj1"}].TargetDelayTime != 10*sim.Second {
		t.Error("account cfg")
	}
	if cfg.Fairness.Entities[fairness.EntityKey{Kind: fairness.KindClass, Name: "batch"}].SingleDelayTime != 20*sim.Second {
		t.Error("class cfg")
	}
	q := cfg.Fairness.Entities[fairness.EntityKey{Kind: fairness.KindQoS, Name: "gold"}]
	if !q.PermSet || q.Perm {
		t.Error("qos cfg")
	}
}

func TestCaseInsensitivity(t *testing.T) {
	cfg, err := Parse("dfspolicy dfstargetdelay\nusercfg[Alice] dfsdyndelayperm=0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fairness.Policy != fairness.TargetDelay {
		t.Error("lowercase directives should parse")
	}
	// Entity names are canonicalized to lowercase.
	a := cfg.Fairness.Entities[fairness.EntityKey{Kind: fairness.KindUser, Name: "alice"}]
	if !a.PermSet {
		t.Error("entity name case-folding")
	}
}

func TestContinuationAtEOF(t *testing.T) {
	cfg, err := Parse("USERCFG[u] DFSDYNDELAYPERM=1 \\")
	if err != nil {
		t.Fatal(err)
	}
	u := cfg.Fairness.Entities[fairness.EntityKey{Kind: fairness.KindUser, Name: "u"}]
	if !u.PermSet || !u.Perm {
		t.Error("trailing continuation should still apply the line")
	}
}

// FuzzParseDuration: a duration either fails to parse or lies in
// [0, sim.Forever], and a whole-second one survives FormatDuration.
func FuzzParseDuration(f *testing.F) {
	for _, s := range []string{"3600", "00:30:00", "45:30", "1.5", "-5", "1e9", "NaN", "Inf", "-Inf",
		"99999999999999:00:00", "9223372036854775807", "1281023893:59:59", "4611686018427387"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDuration(s)
		if err != nil {
			return
		}
		if d < 0 || d > sim.Forever {
			t.Fatalf("ParseDuration(%q) = %d, outside [0, sim.Forever]", s, d)
		}
		if d%sim.Second == 0 {
			if back, err := ParseDuration(FormatDuration(d)); err != nil || back != d {
				t.Fatalf("ParseDuration(%q) = %d, but %q parses to %d, %v", s, d, FormatDuration(d), back, err)
			}
		}
	})
}

// FuzzParse: no configuration text panics the parser, and a duration
// it accepts is never negative.
func FuzzParse(f *testing.F) {
	f.Add(fig6)
	for _, s := range []string{"DFSINTERVAL 99999999999999:00:00", "DFSINTERVAL 9223372036854775807", "DFSINTERVAL 1e9",
		"DFSINTERVAL NaN", "USERCFG[u] DFSTARGETDELAYTIME=Inf", "GROUPCFG[g] DFSSINGLEDELAYTIME=99999999999999:00:00 \\\n DFSDYNDELAYPERM=1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := Parse(text)
		if err != nil {
			return
		}
		for _, d := range []sim.Duration{cfg.Fairness.Interval, cfg.RMPollInterval, cfg.FSInterval} {
			if d < 0 {
				t.Fatalf("Parse(%q) accepted the negative duration %d", text, d)
			}
		}
	})
}
