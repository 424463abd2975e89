// Package core implements the scheduler at the heart of the paper's
// batch system: a Maui-style iteration (Algorithm 1) extended with
// dynamic-request scheduling and dynamic fairness (Algorithm 2).
//
// The scheduler is stateless across the cluster — it plans against a
// snapshot each iteration exactly like Maui ("refresh reservations") —
// but stateful in its fairness accounting and fairshare usage. The same
// Scheduler drives both the discrete-event simulator and the live
// TCP daemons; only the ResourceManager implementation differs.
package core

import (
	"sort"

	"repro/internal/config"
	"repro/internal/fairtree"
	"repro/internal/job"
	"repro/internal/sim"
)

// PriorityWeights configures Maui-style job prioritization factors.
// Priority = SystemPriority·1e12 (admin boost, dominates everything)
// + QueueTime·minutes-waiting + XFactor·expansion-factor
// + Resource·requested-cores + Fairshare·fairshare-factor.
type PriorityWeights struct {
	QueueTime float64 // per minute of queue wait
	XFactor   float64 // expansion factor (1 + wait/walltime)
	Resource  float64 // per requested core
	Fairshare float64 // per unit of fairshare deficit (see Fairshare)
}

// DefaultWeights mirrors a plain queue-time-driven Maui setup: FIFO
// order among equal-priority jobs, with administrative SystemPriority
// able to lift jobs (the ESP Z-jobs) over everything.
func DefaultWeights() PriorityWeights {
	return PriorityWeights{QueueTime: 1}
}

// systemPriorityScale keeps any admin boost above every achievable
// combination of the other factors.
const systemPriorityScale = 1e12

// Priority computes the priority of a queued job at the given time.
func (w PriorityWeights) Priority(j *job.Job, now sim.Time, fs *Fairshare) float64 {
	waitMin := sim.MinutesOf(now - j.SubmitTime)
	if waitMin < 0 {
		waitMin = 0
	}
	p := float64(j.SystemPriority) * systemPriorityScale
	p += w.QueueTime * waitMin
	if w.XFactor != 0 && j.Walltime > 0 {
		p += w.XFactor * (1 + float64(now-j.SubmitTime)/float64(j.Walltime))
	}
	p += w.Resource * float64(j.Cores)
	if w.Fairshare != 0 && fs != nil {
		p += w.Fairshare * fs.Factor(j.Cred.User)
	}
	return p
}

// SortByPriority orders jobs by descending priority; ties break by
// earlier submission, then lower ID, keeping the order deterministic.
func SortByPriority(jobs []*job.Job, now sim.Time, w PriorityWeights, fs *Fairshare) {
	prio := make(map[job.ID]float64, len(jobs))
	for _, j := range jobs {
		prio[j.ID] = w.Priority(j, now, fs)
	}
	sort.SliceStable(jobs, func(a, b int) bool {
		pa, pb := prio[jobs[a].ID], prio[jobs[b].ID]
		if pa != pb {
			return pa > pb
		}
		if jobs[a].SubmitTime != jobs[b].SubmitTime {
			return jobs[a].SubmitTime < jobs[b].SubmitTime
		}
		return jobs[a].ID < jobs[b].ID
	})
}

// Fairshare tracks historical resource usage with exponential interval
// decay, the usual Maui fairshare mechanism, generalized to a
// hierarchical share tree (internal/fairtree). The factor of a user is
// targetShare − actualShare summed over the tree levels: positive for
// underserved users. With the degenerate flat tree (every user a
// direct child of the root, quota 1 — the default when no FSTREE is
// configured) the factor is exactly the legacy 1/n − usage/total.
//
// Unlike the old flat map, time no longer costs anything: usage decays
// lazily on read and Advance is O(expiries), not
// O(intervals × users). A daemon idle over a weekend rolls thousands
// of intervals in one multiplication per touched node.
type Fairshare struct {
	tree *fairtree.Tree
}

// NewFairshare creates a tracker with the given accounting interval
// and per-interval decay (e.g. 24h, 0.7) over a flat degenerate tree.
func NewFairshare(interval sim.Duration, decay float64) *Fairshare {
	return &Fairshare{tree: fairtree.New(fairtree.Options{Interval: interval, Decay: decay})}
}

// NewFairshareFromConfig builds the fairshare tracker from the parsed
// scheduler config: FSINTERVAL/FSDECAY set the decay schedule and the
// FSTREE stanza (validated at parse time) shapes the share hierarchy.
// Without an FSTREE the tree is flat and behaves exactly like the
// historical per-user fairshare.
func NewFairshareFromConfig(cfg *config.SchedConfig) *Fairshare {
	decay := 0.7
	if cfg.FSDecaySet {
		decay = cfg.FSDecay
	}
	f := NewFairshare(cfg.FSInterval, decay)
	// The spec was validated by config.Parse; a hand-built invalid
	// spec degrades to the flat tree rather than panicking mid-New.
	_ = f.tree.ApplySpec(cfg.FSTree)
	return f
}

// Tree exposes the underlying share tree (quotas, history emission,
// ranking).
func (f *Fairshare) Tree() *fairtree.Tree { return f.tree }

// Advance rolls accounting intervals up to now.
func (f *Fairshare) Advance(now sim.Time) { f.tree.Advance(now) }

// Record charges core-seconds of usage to a user, immediately visible
// to Factor.
func (f *Fairshare) Record(user string, coreSeconds float64) {
	if coreSeconds <= 0 {
		return
	}
	f.tree.RecordNow(f.tree.UserID(user), coreSeconds)
}

// UserID interns a user name to its share-tree leaf. Intended for
// submit time, so completion-path accounting is id-indexed.
func (f *Fairshare) UserID(user string) fairtree.NodeID { return f.tree.UserID(user) }

// Factor returns targetShare − actualShare; users that used more than
// their share get a negative factor. With no usage at all every user
// gets 0.
func (f *Fairshare) Factor(user string) float64 {
	if id, ok := f.tree.LookupUser(user); ok {
		return f.tree.Factor(id)
	}
	return f.tree.NewcomerFactor()
}

// Usage returns the decayed usage recorded for a user.
func (f *Fairshare) Usage(user string) float64 {
	if id, ok := f.tree.LookupUser(user); ok {
		return f.tree.UsageOf(id)
	}
	return 0
}
