// Package fairness implements the paper's dynamic fairness (DFS)
// policies (§III-D): site-configurable limits on how much delay the
// dynamic allocations of evolving jobs may inflict on queued static
// jobs. Two mechanisms exist and can be combined:
//
//   - DFSSingleJobDelay limits the delay any single queued job may
//     accumulate due to dynamic allocations.
//   - DFSTargetDelay limits the cumulative delay charged to a user
//     (or group/account/class/QoS) within a configurable interval;
//     at each interval boundary the accumulated delay decays by
//     DFSDecay, letting historical delays weigh in.
//
// Limits can be set per user, group, account, job class and QoS; when
// several levels apply, the most restrictive limit wins. A job whose
// credentials carry DFSDynDelayPerm=0 may never be delayed. Delays an
// evolving job causes to the *same user's* queued jobs are exempt.
package fairness

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/fairtree"
	"repro/internal/job"
	"repro/internal/sim"
)

// Policy selects which delay checks are enforced (DFSPolicy).
type Policy int

const (
	// None disables dynamic fairness: dynamic requests take highest
	// priority and delays to static jobs are ignored (the paper's
	// Dynamic-HP configuration).
	None Policy = iota
	// SingleJobDelay enforces only the per-job delay limit.
	SingleJobDelay
	// TargetDelay enforces only the per-interval cumulative limit.
	TargetDelay
	// SingleAndTargetDelay enforces both.
	SingleAndTargetDelay
)

var policyNames = map[Policy]string{
	None:                 "NONE",
	SingleJobDelay:       "DFSSINGLEJOBDELAY",
	TargetDelay:          "DFSTARGETDELAY",
	SingleAndTargetDelay: "DFSSINGLEANDTARGETDELAY",
}

func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses the Maui-config spelling of a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "NONE", "":
		return None, nil
	case "DFSSINGLEJOBDELAY", "DFSSINGLEDELAY":
		return SingleJobDelay, nil
	case "DFSTARGETDELAY":
		return TargetDelay, nil
	case "DFSSINGLEANDTARGETDELAY", "DFSSINGLETARGETDELAY":
		return SingleAndTargetDelay, nil
	}
	return None, fmt.Errorf("fairness: unknown DFSPolicy %q", s)
}

func (p Policy) checksSingle() bool { return p == SingleJobDelay || p == SingleAndTargetDelay }
func (p Policy) checksTarget() bool { return p == TargetDelay || p == SingleAndTargetDelay }

// EntityKind is the credential level a limit is attached to.
type EntityKind int

const (
	KindUser EntityKind = iota
	KindGroup
	KindAccount
	KindClass
	KindQoS
	// KindFSNode is a share-tree interior node (org/team): when a
	// tracker has a share tree attached, a delay charged to a user
	// also rolls up to every ancestor node on the user's tree path,
	// so target-delay budgets can be set per org or team
	// (FSNODECFG[path] in maui.cfg).
	KindFSNode
)

var kindNames = [...]string{"user", "group", "account", "class", "qos", "fsnode"}

func (k EntityKind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// EntityKey identifies a charged entity ("user:alice", "group:cfd").
type EntityKey struct {
	Kind EntityKind
	Name string
}

func (k EntityKey) String() string { return k.Kind.String() + ":" + k.Name }

// Limits holds the per-entity DFS settings. The zero value means
// "delays permitted, no limits" — matching the paper, where a limit
// value of 0 means unlimited (Fig. 6: user01 has DFSSINGLEDELAYTIME=0
// and "can be delayed for any amount of time" per job).
type Limits struct {
	// PermSet/Perm encode the tri-state DFSDynDelayPerm: unset (use
	// default, which allows), explicitly allowed, or disallowed.
	PermSet bool
	Perm    bool
	// SingleDelayTime bounds the delay any one queued job of this
	// entity may accumulate; 0 = unlimited.
	SingleDelayTime sim.Duration
	// TargetDelayTime bounds the cumulative delay charged to this
	// entity per interval; 0 = unlimited.
	TargetDelayTime sim.Duration
}

// Config is the site-wide dynamic fairness configuration.
type Config struct {
	Policy Policy
	// Interval is the DFSInterval accounting window; required when the
	// policy checks target delays.
	Interval sim.Duration
	// Decay is DFSDecay: the fraction of accumulated delay carried
	// into the next interval (0 = forget everything, 1 = never forget).
	Decay float64
	// Entities maps credential levels to their configured limits.
	Entities map[EntityKey]Limits
}

// NewConfig returns a Config with the given policy and no limits.
func NewConfig(p Policy) *Config {
	return &Config{Policy: p, Interval: sim.Hour, Entities: make(map[EntityKey]Limits)}
}

// Set assigns limits to an entity, replacing previous settings.
func (c *Config) Set(kind EntityKind, name string, l Limits) {
	if c.Entities == nil {
		c.Entities = make(map[EntityKey]Limits)
	}
	c.Entities[EntityKey{kind, name}] = l
}

// keysInto appends the entity keys applicable to a job's credentials,
// in a deterministic order, to dst (a scratch buffer the tracker
// reuses — the hot path of Evaluate and Charge allocates nothing
// steady-state). With a share tree attached, the user's ancestor
// nodes are appended too, so child charges roll up to org/team
// budgets — from the user's FSTREE home even before the user's leaf
// exists, since the leaf is created only when usage is first charged;
// over the degenerate flat tree the user hangs directly off the root
// and no extra keys appear.
func (t *Tracker) keysInto(cred job.Credentials, dst []EntityKey) []EntityKey {
	if cred.User != "" {
		dst = append(dst, EntityKey{KindUser, cred.User})
	}
	if cred.Group != "" {
		dst = append(dst, EntityKey{KindGroup, cred.Group})
	}
	if cred.Account != "" {
		dst = append(dst, EntityKey{KindAccount, cred.Account})
	}
	if cred.Class != "" {
		dst = append(dst, EntityKey{KindClass, cred.Class})
	}
	if cred.QoS != "" {
		dst = append(dst, EntityKey{KindQoS, cred.QoS})
	}
	if t.tree != nil && cred.User != "" {
		for p := t.tree.Home(cred.User); p > 0; p = t.tree.Parent(p) {
			dst = append(dst, EntityKey{KindFSNode, t.tree.CachedPath(p)})
		}
	}
	return dst
}

// JobDelay reports the delay a hypothetical dynamic grant would cause
// to one queued job (measured by the scheduler via reservation
// recomputation, Algorithm 2).
type JobDelay struct {
	Job   *job.Job
	Delay sim.Duration
}

// Decision is the outcome of a fairness evaluation.
type Decision struct {
	Allowed bool
	// Reason explains a rejection ("" when allowed).
	Reason string
}

// Tracker enforces a Config over time: it accumulates charged delays
// per entity and per queued job, and rolls accounting intervals with
// decay. It is not safe for concurrent use; the scheduler owns it.
type Tracker struct {
	cfg           *Config
	intervalStart sim.Time
	perEntity     map[EntityKey]sim.Duration
	perJob        map[job.ID]sim.Duration

	// tree, when attached, rolls every charge up to the user's
	// ancestor share-tree nodes (KindFSNode entities).
	tree *fairtree.Tree

	// Scratch reused across Evaluate/Charge calls so the hot path is
	// allocation-free once warm.
	keyBuf     []EntityKey
	evalEntity map[EntityKey]sim.Duration
	evalKeys   []EntityKey
}

// NewTracker creates a tracker starting its first interval at start.
func NewTracker(cfg *Config, start sim.Time) *Tracker {
	if cfg == nil {
		cfg = NewConfig(None)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = sim.Hour
	}
	return &Tracker{
		cfg:           cfg,
		intervalStart: start,
		perEntity:     make(map[EntityKey]sim.Duration),
		perJob:        make(map[job.ID]sim.Duration),
	}
}

// Config returns the tracker's configuration.
func (t *Tracker) Config() *Config { return t.cfg }

// AttachShareTree connects a fairshare tree: from then on, charges to
// a user also count against the target-delay budgets of the user's
// ancestor nodes (KindFSNode). Attaching a flat tree is a no-op in
// effect.
func (t *Tracker) AttachShareTree(tr *fairtree.Tree) { t.tree = tr }

// Advance rolls the accounting interval forward to cover now, applying
// DFSDecay at each boundary crossed. Call before Evaluate/Charge.
//
// All k elapsed boundaries are applied in one closed-form decay^k
// step: a daemon idle over a weekend used to pay thousands of full-map
// sweeps here. Equivalence with the per-interval loop is exact for
// decay 0 (clear), 1 (identity), and 0.5 (truncated integer halving:
// floor(floor(v/2)/2) = floor(v/4), and ×0.5^k is exact in float64);
// see TestAdvanceClosedFormEquivalence.
func (t *Tracker) Advance(now sim.Time) {
	if now < t.intervalStart+t.cfg.Interval {
		return
	}
	k := int64((now - t.intervalStart) / t.cfg.Interval)
	t.intervalStart += sim.Duration(k) * t.cfg.Interval
	switch {
	case t.cfg.Decay <= 0:
		clear(t.perEntity)
	case t.cfg.Decay >= 1:
		// Identity: nothing decays, nothing is forgotten.
	default:
		factor := math.Pow(t.cfg.Decay, float64(k))
		for key, v := range t.perEntity {
			nv := sim.Duration(float64(v) * factor)
			if nv <= 0 {
				delete(t.perEntity, key)
			} else {
				t.perEntity[key] = nv
			}
		}
	}
}

// IntervalStart returns the start of the current accounting interval.
func (t *Tracker) IntervalStart() sim.Time { return t.intervalStart }

// EntityUsage returns the delay charged to an entity this interval.
func (t *Tracker) EntityUsage(k EntityKey) sim.Duration { return t.perEntity[k] }

// JobUsage returns the cumulative delay charged against a queued job.
func (t *Tracker) JobUsage(id job.ID) sim.Duration { return t.perJob[id] }

// ForgetJob drops per-job accounting once a job starts or is removed.
func (t *Tracker) ForgetJob(id job.ID) { delete(t.perJob, id) }

// Evaluate decides whether a dynamic grant by requester, causing the
// given delays to queued jobs, is permitted under the configured
// policy. It does not mutate accounting state; call Charge after the
// grant is actually made.
func (t *Tracker) Evaluate(requester job.Credentials, delays []JobDelay) Decision {
	if t.cfg.Policy == None {
		return Decision{Allowed: true}
	}
	// Aggregate the would-be charges per entity first: a single grant
	// may delay several jobs of the same user, and the target check
	// must consider their sum. The map is tracker scratch (cleared,
	// not reallocated) so steady-state evaluation is allocation-free.
	if t.evalEntity == nil {
		t.evalEntity = make(map[EntityKey]sim.Duration)
	}
	perEntity := t.evalEntity
	clear(perEntity)
	for _, d := range delays {
		if d.Delay <= 0 {
			continue
		}
		// Delays to the requester's own jobs are not considered.
		if d.Job.Cred.User == requester.User {
			continue
		}
		keys := t.keysInto(d.Job.Cred, t.keyBuf[:0])
		t.keyBuf = keys[:0]
		// Permission: any applicable entity that explicitly disallows
		// delays vetoes the grant.
		for _, k := range keys {
			if l, ok := t.cfg.Entities[k]; ok && l.PermSet && !l.Perm {
				return Decision{Reason: fmt.Sprintf("%s of %s is not permitted to be delayed (DFSDynDelayPerm=0 on %s)", d.Job.ID, d.Job.Cred.User, k)}
			}
		}
		// Single-job limit: most restrictive non-zero limit across
		// applicable entities.
		if t.cfg.Policy.checksSingle() {
			limit := mostRestrictive(t.cfg, keys, func(l Limits) sim.Duration { return l.SingleDelayTime })
			if limit > 0 && t.perJob[d.Job.ID]+d.Delay > limit {
				return Decision{Reason: fmt.Sprintf("%s would exceed single-job delay limit %s (accumulated %s + new %s)",
					d.Job.ID, sim.FormatTime(limit), sim.FormatTime(t.perJob[d.Job.ID]), sim.FormatTime(d.Delay))}
			}
		}
		for _, k := range keys {
			perEntity[k] += d.Delay
		}
	}
	// Target limit: each charged entity must stay within its own
	// per-interval budget.
	if t.cfg.Policy.checksTarget() {
		keys := t.evalKeys[:0]
		for k := range perEntity {
			// sortKeys below puts the keys in order.
			keys = append(keys, k)
		}
		t.evalKeys = keys[:0]
		sortKeys(keys)
		for _, k := range keys {
			l, ok := t.cfg.Entities[k]
			if !ok || l.TargetDelayTime == 0 {
				continue
			}
			if t.perEntity[k]+perEntity[k] > l.TargetDelayTime {
				return Decision{Reason: fmt.Sprintf("%s would exceed target delay limit %s this interval (used %s + new %s)",
					k, sim.FormatTime(l.TargetDelayTime), sim.FormatTime(t.perEntity[k]), sim.FormatTime(perEntity[k]))}
			}
		}
	}
	return Decision{Allowed: true}
}

// sortKeys orders entity keys by kind then name. Insertion sort over
// a handful of keys (credential levels plus tree ancestors), with no
// sort.Slice closure: the Evaluate hot path stays allocation-free.
func sortKeys(keys []EntityKey) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i - 1
		for j >= 0 && (keys[j].Kind > k.Kind || (keys[j].Kind == k.Kind && keys[j].Name > k.Name)) {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = k
	}
}

// mostRestrictive returns the smallest non-zero limit among the
// applicable entities (0 = no limit configured anywhere).
func mostRestrictive(cfg *Config, keys []EntityKey, get func(Limits) sim.Duration) sim.Duration {
	var best sim.Duration
	for _, k := range keys {
		l, ok := cfg.Entities[k]
		if !ok {
			continue
		}
		v := get(l)
		if v == 0 {
			continue
		}
		if best == 0 || v < best {
			best = v
		}
	}
	return best
}

// Charge records the delays of a granted dynamic request against the
// affected entities and jobs. Same-user delays are exempt exactly as
// in Evaluate. Charging happens even under Policy None so that
// experiment reports can show the delay a site *would* have charged.
func (t *Tracker) Charge(requester job.Credentials, delays []JobDelay) {
	for _, d := range delays {
		if d.Delay <= 0 || d.Job.Cred.User == requester.User {
			continue
		}
		t.perJob[d.Job.ID] += d.Delay
		keys := t.keysInto(d.Job.Cred, t.keyBuf[:0])
		for _, k := range keys {
			t.perEntity[k] += d.Delay
		}
		t.keyBuf = keys[:0]
	}
}

// TotalCharged returns the sum of delays charged to all entities of a
// given kind this interval; used by experiment reporting.
func (t *Tracker) TotalCharged(kind EntityKind) sim.Duration {
	var total sim.Duration
	for k, v := range t.perEntity {
		if k.Kind == kind {
			total += v
		}
	}
	return total
}
