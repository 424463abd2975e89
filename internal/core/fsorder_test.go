package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/fairtree"
	"repro/internal/job"
	"repro/internal/sim"
)

func fsOrderSched(decay float64) *Scheduler {
	cfg := config.Default()
	cfg.FSInterval = sim.Hour
	cfg.FSDecay = decay
	cfg.FSDecaySet = true
	return New(Options{
		Config:  cfg,
		Weights: PriorityWeights{Fairshare: 1000},
	}, 0)
}

func tableIDs(t *jobTable) []job.ID {
	ids := make([]job.ID, t.len())
	for i, j := range t.jobs {
		ids[i] = j.ID
	}
	return ids
}

// TestRepairMatchesFullFill drives the fairshare-ordered table cache
// through randomized usage-change sequences, with jobs entering and
// leaving the queue in between, and asserts the repaired order is
// identical to a from-scratch fill at every step — including steps
// where the dirty set is big enough to trip the rebuild fallback,
// charges arriving by interned leaf id, and jobs of a dirty entity
// that are also in the queue's change log.
func TestRepairMatchesFullFill(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		users := make([]string, 12)
		for i := range users {
			users[i] = fmt.Sprintf("u%02d", i)
		}
		rm := &loggedRM{trackedRM: &trackedRM{testRM: *newTestRM(1, 4)}} // tiny cluster: nothing starts
		const nJobs = 150
		for i := 0; i < nJobs; i++ {
			rm.queued = append(rm.queued,
				mkQueued(i+1, users[rng.Intn(len(users))], 8, sim.Hour, sim.Time(rng.Intn(100))*sim.Time(sim.Second)))
		}

		s := fsOrderSched(0.5)
		now := sim.Time(0)
		s.ensureTable(now, rm)
		if !s.table.valid {
			t.Fatalf("seed %d: table not cached in fsOrder mode", seed)
		}
		// The cache-reuse gate requires the RM seen by the previous
		// iteration; Iterate sets this via noteIteration, tests that
		// drive ensureTable directly set it themselves.
		s.lastRM = rm

		for step := 0; step < 40; step++ {
			// Charge a random subset of users; occasionally a large
			// one to force the k*8 > n rebuild fallback, and half the
			// time through the interned leaf id.
			nDirty := 1 + rng.Intn(3)
			if step%7 == 0 {
				nDirty = len(users)
			}
			byID := rng.Intn(2) == 0
			for d := 0; d < nDirty; d++ {
				u := users[rng.Intn(len(users))]
				amt := float64(rng.Intn(100_000) + 1)
				if byID {
					s.fs.Tree().RecordNow(s.fs.UserID(u), amt)
				} else {
					s.fs.Record(u, amt)
				}
			}
			if rng.Intn(5) == 0 {
				now += sim.Time(rng.Intn(3)) * sim.Time(sim.Hour)
			}
			// Queue churn: a submission (now and then by a user the
			// tree has not seen) and a cancellation.
			if rng.Intn(2) == 0 {
				u := users[rng.Intn(len(users))]
				if rng.Intn(4) == 0 {
					u = fmt.Sprintf("new%02d", step)
				}
				j := mkQueued(nJobs+step+1, u, 8, sim.Hour, now)
				rm.queued = append(rm.queued, j)
				rm.bumpQueueFor(j)
			}
			if rng.Intn(2) == 0 {
				j := rm.queued[rng.Intn(len(rm.queued))]
				rm.queued = without(rm.queued, j)
				j.State = job.Cancelled
				rm.bumpQueueFor(j)
			}
			s.fs.Advance(now) // rolls epochs
			s.ensureTable(now, rm)
			got := tableIDs(&s.table)

			// Reference: a fresh table filled from scratch with the
			// same fairshare state.
			var ref jobTable
			ref.fill(s.selectEligible(rm.QueuedJobs()), now, s.opts.Weights, s.fs)
			want := tableIDs(&ref)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: order diverged at %d: repair %v vs fill %v", seed, step, i, got[i], want[i])
				}
			}
			// Column integrity: users column must track jobs.
			for i, j := range s.table.jobs {
				if want := int32(s.fs.UserID(j.Cred.User)); s.table.users[i] != want {
					t.Fatalf("seed %d step %d: users column desynced at %d", seed, step, i)
				}
				if s.table.cores[i] != int32(j.Cores) {
					t.Fatalf("seed %d step %d: cores column desynced at %d", seed, step, i)
				}
			}
			if err := s.table.checkFit(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if s.table.repairs == 0 {
			t.Fatalf("seed %d: incremental repair never engaged", seed)
		}
	}
}

// TestHierarchicalTreeDisablesOrderCache pins the safety gate: with a
// non-flat share tree the cached order must be rebuilt (not repaired),
// because one leaf's usage moves cousins' factors through shared
// ancestors.
func TestHierarchicalTreeDisablesOrderCache(t *testing.T) {
	cfg := config.Default()
	cfg.FSInterval = sim.Hour
	cfg.FSDecay = 0.5
	cfg.FSDecaySet = true
	cfg.FSTree = &fairtree.Spec{Nodes: []fairtree.SpecNode{
		{Path: "org", Users: []string{"u00", "u01"}},
	}}
	s := New(Options{Config: cfg, Weights: PriorityWeights{Fairshare: 1000}}, 0)
	if s.fs.Tree().Flat() {
		t.Fatal("spec with homed users should make the tree non-flat")
	}
	rm := &trackedRM{testRM: *newTestRM(1, 4)}
	rm.queued = append(rm.queued, mkQueued(1, "u00", 8, sim.Hour, 0), mkQueued(2, "u01", 8, sim.Hour, 1))
	s.ensureTable(0, rm)
	if s.table.valid {
		t.Error("order cache must be off for a hierarchical tree")
	}
}

// legacyFlatFS is the pre-fairtree map-based fairshare, embedded as
// the decision oracle (see fairtree's equivalence tests for the
// usage-level proof; this test closes the loop at the scheduling
// decision level).
type legacyFlatFS struct {
	interval      sim.Duration
	decay         float64
	intervalStart sim.Time
	usage         map[string]float64
	total         float64
}

func (f *legacyFlatFS) advance(now sim.Time) {
	for now >= f.intervalStart+f.interval {
		f.intervalStart += f.interval
		f.total = 0
		users := make([]string, 0, len(f.usage))
		for u := range f.usage {
			users = append(users, u)
		}
		sort.Strings(users)
		for _, u := range users {
			nv := f.usage[u] * f.decay
			if nv < 1e-9 {
				delete(f.usage, u)
				continue
			}
			f.usage[u] = nv
			f.total += nv
		}
	}
}

func (f *legacyFlatFS) record(user string, cs float64) {
	if cs <= 0 {
		return
	}
	f.usage[user] += cs
	f.total += cs
}

func (f *legacyFlatFS) factor(user string) float64 {
	if f.total <= 0 || len(f.usage) == 0 {
		return 0
	}
	return 1.0/float64(len(f.usage)) - f.usage[user]/f.total
}

// TestFairshareDecisionDifferential proves tree-vs-flat scheduling
// decisions identical under the degenerate flat config with uniform
// quotas and weights: 25 seeds of interleaved charges, epoch rolls and
// queue evaluations, comparing the fairtree-backed table order against
// an order computed with the legacy flat implementation's factors.
func TestFairshareDecisionDifferential(t *testing.T) {
	for _, decay := range []float64{0, 0.5, 1} {
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			users := make([]string, 10)
			for i := range users {
				users[i] = fmt.Sprintf("u%02d", i)
			}
			rm := &trackedRM{testRM: *newTestRM(1, 4)}
			for i := 0; i < 80; i++ {
				rm.queued = append(rm.queued,
					mkQueued(i+1, users[rng.Intn(len(users))], 8, sim.Hour, sim.Time(rng.Intn(50))*sim.Time(sim.Second)))
			}
			s := fsOrderSched(decay)
			leg := &legacyFlatFS{interval: sim.Hour, decay: decay, usage: make(map[string]float64)}
			now := sim.Time(0)
			s.ensureTable(now, rm)
			s.lastRM = rm // engage the cache/repair path (see above)
			for step := 0; step < 30; step++ {
				for c := 0; c < rng.Intn(4); c++ {
					u := users[rng.Intn(len(users))]
					amt := float64(rng.Intn(1_000_000) + 1)
					s.fs.Record(u, amt)
					leg.record(u, amt)
				}
				if rng.Intn(4) == 0 {
					now += sim.Time(rng.Intn(5)) * sim.Time(sim.Hour)
				}
				s.fs.Advance(now)
				leg.advance(now)
				s.ensureTable(now, rm)
				got := tableIDs(&s.table)

				// Oracle order from legacy factors through the same
				// priority formula and tie-breaks.
				w := s.opts.Weights
				jobs := append([]*job.Job(nil), rm.queued...)
				sort.SliceStable(jobs, func(a, b int) bool {
					pa := w.Fairshare * leg.factor(jobs[a].Cred.User)
					pb := w.Fairshare * leg.factor(jobs[b].Cred.User)
					return rowBefore(pa, jobs[a].SubmitTime, jobs[a].ID, pb, jobs[b].SubmitTime, jobs[b].ID)
				})
				for i, j := range jobs {
					if got[i] != j.ID {
						t.Fatalf("decay=%g seed=%d step=%d: decision order diverged at %d: tree %v vs legacy %v",
							decay, seed, step, i, got[i], j.ID)
					}
				}
			}
		}
	}
}
