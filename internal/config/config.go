// Package config parses Maui-style scheduler configuration files,
// including the paper's dynamic fairness settings in exactly the
// format of Fig. 6:
//
//	DFSPOLICY         DFSSINGLEANDTARGETDELAY
//	DFSINTERVAL       06:00:00
//	DFSDECAY          0.4
//	USERCFG[user01]   DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=3600 \
//	                  DFSSINGLEDELAYTIME=0
//	GROUPCFG[group05] DFSTARGETDELAYTIME=04:00:00
//
// plus the scheduler parameters the paper references
// (RESERVATIONDEPTH, RESERVATIONDELAYDEPTH, BACKFILLPOLICY,
// PREEMPTPOLICY). Times accept total seconds or [HH:]MM:SS form.
package config

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/fairness"
	"repro/internal/fairtree"
	"repro/internal/sim"
)

// SchedConfig is the full parsed scheduler configuration.
type SchedConfig struct {
	// ReservationDepth is Maui's backfill-protection depth (N highest
	// priority jobs get reservations).
	ReservationDepth int
	// ReservationDelayDepth controls for how many StartLater jobs the
	// extended iteration measures dynamic-allocation delays (§III-C).
	ReservationDelayDepth int
	// BackfillPolicy: "FIRSTFIT" (EASY-style) or "NONE".
	BackfillPolicy string
	// PreemptPolicy: "NONE" or "REQUEUE" (dynamic requests may preempt
	// backfilled/preemptible jobs).
	PreemptPolicy string
	// RMPollInterval is the scheduler's idle-timer iteration period.
	RMPollInterval sim.Duration
	// Fairness carries the DFS settings.
	Fairness *fairness.Config
	// FSInterval is the fairshare usage-decay interval (FSINTERVAL);
	// <= 0 means the 24h default.
	FSInterval sim.Duration
	// FSDecay is the per-interval fairshare decay factor (FSDECAY),
	// meaningful only when FSDecaySet is true (so a zero-valued
	// config still gets the historical 0.7 default).
	FSDecay    float64
	FSDecaySet bool
	// FSTree is the hierarchical share tree declared by FSTREE[...]
	// stanzas; nil means the degenerate flat per-user tree, which is
	// bit-identical to the legacy flat fairshare.
	FSTree *fairtree.Spec
}

// Default returns the configuration used when a parameter is absent,
// matching the paper's evaluation defaults where it states them
// (ReservationDepth = ReservationDelayDepth = 5).
func Default() *SchedConfig {
	return &SchedConfig{
		ReservationDepth:      5,
		ReservationDelayDepth: 5,
		BackfillPolicy:        "FIRSTFIT",
		PreemptPolicy:         "NONE",
		RMPollInterval:        30 * sim.Second,
		Fairness:              fairness.NewConfig(fairness.None),
		FSInterval:            24 * sim.Hour,
		FSDecay:               0.7,
		FSDecaySet:            true,
	}
}

// ParseDuration parses "3600", "30:00", or "06:00:00" into a duration.
// It refuses a duration that is negative, not a number, or longer than
// sim.Forever.
func ParseDuration(s string) (sim.Duration, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("config: empty duration")
	}
	parts := strings.Split(s, ":")
	if len(parts) == 1 {
		secs, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return 0, fmt.Errorf("config: bad duration %q: %v", s, err)
		}
		switch {
		case math.IsNaN(secs):
			return 0, fmt.Errorf("config: bad duration %q", s)
		case secs < 0:
			return 0, fmt.Errorf("config: negative duration %q", s)
		case secs*float64(sim.Second)+0.5 >= float64(sim.Forever): // +Inf too
			return 0, errDurationTooLong(s)
		}
		return sim.Seconds(secs), nil
	}
	if len(parts) > 3 {
		return 0, fmt.Errorf("config: bad duration %q", s)
	}
	const maxSecs = int64(sim.Forever / sim.Second)
	var total int64
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("config: bad duration component %q in %q", p, s)
		}
		if v > maxSecs || total > (maxSecs-v)/60 {
			return 0, errDurationTooLong(s)
		}
		total = total*60 + v
	}
	return sim.Duration(total) * sim.Second, nil
}

func errDurationTooLong(s string) error {
	return fmt.Errorf("config: duration %q is past the end of time", s)
}

// FormatDuration renders a duration as HH:MM:SS (inverse of
// ParseDuration for whole-second values).
func FormatDuration(d sim.Duration) string {
	secs := int64(d / sim.Second)
	return fmt.Sprintf("%02d:%02d:%02d", secs/3600, (secs/60)%60, secs%60)
}

// Parse reads a full configuration from text. Lines starting with '#'
// are comments; a trailing '\' continues the line (Fig. 6 style).
func Parse(text string) (*SchedConfig, error) {
	cfg := Default()
	lines := joinContinuations(text)
	for lineno, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		key := strings.ToUpper(fields[0])
		rest := fields[1:]
		if err := applyDirective(cfg, key, rest); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineno+1, err)
		}
	}
	if cfg.FSTree != nil {
		if err := cfg.FSTree.Validate(); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

func joinContinuations(text string) []string {
	raw := strings.Split(text, "\n")
	var out []string
	var cur strings.Builder
	for _, l := range raw {
		trimmed := strings.TrimRight(l, " \t\r")
		if strings.HasSuffix(trimmed, "\\") {
			cur.WriteString(strings.TrimSuffix(trimmed, "\\"))
			cur.WriteByte(' ')
			continue
		}
		cur.WriteString(trimmed)
		out = append(out, cur.String())
		cur.Reset()
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func applyDirective(cfg *SchedConfig, key string, rest []string) error {
	needValue := func() (string, error) {
		if len(rest) == 0 {
			return "", fmt.Errorf("%s: missing value", key)
		}
		return rest[0], nil
	}
	switch {
	case key == "DFSPOLICY":
		v, err := needValue()
		if err != nil {
			return err
		}
		p, err := fairness.ParsePolicy(v)
		if err != nil {
			return err
		}
		cfg.Fairness.Policy = p
	case key == "DFSINTERVAL":
		v, err := needValue()
		if err != nil {
			return err
		}
		d, err := ParseDuration(v)
		if err != nil {
			return err
		}
		cfg.Fairness.Interval = d
	case key == "DFSDECAY":
		v, err := needValue()
		if err != nil {
			return err
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("DFSDECAY: want a fraction in [0,1], got %q", v)
		}
		cfg.Fairness.Decay = f
	case key == "RESERVATIONDEPTH":
		v, err := needValue()
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("RESERVATIONDEPTH: bad value %q", v)
		}
		cfg.ReservationDepth = n
	case key == "RESERVATIONDELAYDEPTH":
		v, err := needValue()
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("RESERVATIONDELAYDEPTH: bad value %q", v)
		}
		cfg.ReservationDelayDepth = n
	case key == "BACKFILLPOLICY":
		v, err := needValue()
		if err != nil {
			return err
		}
		v = strings.ToUpper(v)
		if v != "FIRSTFIT" && v != "NONE" {
			return fmt.Errorf("BACKFILLPOLICY: unknown policy %q", v)
		}
		cfg.BackfillPolicy = v
	case key == "PREEMPTPOLICY":
		v, err := needValue()
		if err != nil {
			return err
		}
		v = strings.ToUpper(v)
		if v != "NONE" && v != "REQUEUE" {
			return fmt.Errorf("PREEMPTPOLICY: unknown policy %q", v)
		}
		cfg.PreemptPolicy = v
	case key == "RMPOLLINTERVAL":
		v, err := needValue()
		if err != nil {
			return err
		}
		d, err := ParseDuration(v)
		if err != nil {
			return err
		}
		cfg.RMPollInterval = d
	case key == "FSINTERVAL":
		v, err := needValue()
		if err != nil {
			return err
		}
		d, err := ParseDuration(v)
		if err != nil {
			return err
		}
		cfg.FSInterval = d
	case key == "FSDECAY":
		v, err := needValue()
		if err != nil {
			return err
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("FSDECAY: want a fraction in [0,1], got %q", v)
		}
		cfg.FSDecay = f
		cfg.FSDecaySet = true
	case strings.HasPrefix(key, "FSTREE["):
		return applyFSTree(cfg, key, rest)
	case strings.HasPrefix(key, "USERCFG["):
		return applyEntityCfg(cfg, fairness.KindUser, key, "USERCFG[", rest)
	case strings.HasPrefix(key, "GROUPCFG["):
		return applyEntityCfg(cfg, fairness.KindGroup, key, "GROUPCFG[", rest)
	case strings.HasPrefix(key, "ACCOUNTCFG["):
		return applyEntityCfg(cfg, fairness.KindAccount, key, "ACCOUNTCFG[", rest)
	case strings.HasPrefix(key, "CLASSCFG["):
		return applyEntityCfg(cfg, fairness.KindClass, key, "CLASSCFG[", rest)
	case strings.HasPrefix(key, "QOSCFG["):
		return applyEntityCfg(cfg, fairness.KindQoS, key, "QOSCFG[", rest)
	case strings.HasPrefix(key, "FSNODECFG["):
		// DFS budgets attached to a share-tree node (dotted path):
		// charges to any user under the node count against it.
		return applyEntityCfg(cfg, fairness.KindFSNode, key, "FSNODECFG[", rest)
	default:
		return fmt.Errorf("unknown directive %q", key)
	}
	return nil
}

// applyFSTree parses one FSTREE stanza:
//
//	FSTREE[physics.lattice] QUOTA=2 OVERQUOTAWEIGHT=1.5 USERS=u1,u2
//
// The bracketed dotted path names a tree node (intermediates are
// created implicitly); USERS homes user leaves under it. User names
// are kept case-sensitive — they must match submitted credentials.
func applyFSTree(cfg *SchedConfig, key string, rest []string) error {
	if !strings.HasSuffix(key, "]") {
		return fmt.Errorf("%s: missing closing bracket", key)
	}
	path := strings.ToLower(key[len("FSTREE[") : len(key)-1])
	if path == "" {
		return fmt.Errorf("%s: empty node path", key)
	}
	node := fairtree.SpecNode{Path: path}
	for _, kv := range rest {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return fmt.Errorf("%s: expected KEY=VALUE, got %q", key, kv)
		}
		k := strings.ToUpper(kv[:eq])
		v := kv[eq+1:]
		switch k {
		case "QUOTA":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				return fmt.Errorf("%s: QUOTA wants a positive number, got %q", key, v)
			}
			node.Quota = f
		case "OVERQUOTAWEIGHT":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				return fmt.Errorf("%s: OVERQUOTAWEIGHT wants a positive number, got %q", key, v)
			}
			node.OverQuotaWeight = f
		case "USERS":
			for _, u := range strings.Split(v, ",") {
				u = strings.TrimSpace(u)
				if u == "" {
					return fmt.Errorf("%s: USERS has an empty name", key)
				}
				node.Users = append(node.Users, u)
			}
		default:
			return fmt.Errorf("%s: unknown setting %q", key, k)
		}
	}
	if cfg.FSTree == nil {
		cfg.FSTree = &fairtree.Spec{}
	}
	cfg.FSTree.Nodes = append(cfg.FSTree.Nodes, node)
	return nil
}

func applyEntityCfg(cfg *SchedConfig, kind fairness.EntityKind, key, prefix string, rest []string) error {
	if !strings.HasSuffix(key, "]") {
		return fmt.Errorf("%s: missing closing bracket", key)
	}
	name := strings.ToLower(key[len(prefix) : len(key)-1])
	if name == "" {
		return fmt.Errorf("%s: empty entity name", key)
	}
	limits := cfg.Fairness.Entities[fairness.EntityKey{Kind: kind, Name: name}]
	for _, kv := range rest {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return fmt.Errorf("%s: expected KEY=VALUE, got %q", key, kv)
		}
		k := strings.ToUpper(kv[:eq])
		v := kv[eq+1:]
		switch k {
		case "DFSDYNDELAYPERM":
			switch v {
			case "1":
				limits.PermSet, limits.Perm = true, true
			case "0":
				limits.PermSet, limits.Perm = true, false
			default:
				return fmt.Errorf("%s: DFSDYNDELAYPERM wants 0 or 1, got %q", key, v)
			}
		case "DFSSINGLEDELAYTIME":
			d, err := ParseDuration(v)
			if err != nil {
				return fmt.Errorf("%s: %v", key, err)
			}
			limits.SingleDelayTime = d
		case "DFSTARGETDELAYTIME":
			d, err := ParseDuration(v)
			if err != nil {
				return fmt.Errorf("%s: %v", key, err)
			}
			limits.TargetDelayTime = d
		default:
			return fmt.Errorf("%s: unknown setting %q", key, k)
		}
	}
	cfg.Fairness.Set(kind, name, limits)
	return nil
}
