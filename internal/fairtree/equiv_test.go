package fairtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// legacyFairshare is the map-based flat implementation the share tree
// replaced (internal/core/priority.go before the fairtree rewrite),
// embedded verbatim as the equivalence oracle. It rolls every interval
// with an explicit per-interval loop, so comparing against the tree's
// closed-form lazy decay proves the O(n)-sweep deletion safe.
type legacyFairshare struct {
	interval      sim.Duration
	decay         float64
	intervalStart sim.Time
	usage         map[string]float64
	total         float64
}

func newLegacy(interval sim.Duration, decay float64) *legacyFairshare {
	if interval <= 0 {
		interval = 24 * sim.Hour
	}
	return &legacyFairshare{interval: interval, decay: decay, usage: make(map[string]float64)}
}

func (f *legacyFairshare) Advance(now sim.Time) {
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

func (f *legacyFairshare) Record(user string, coreSeconds float64) {
	if coreSeconds <= 0 {
		return
	}
	f.usage[user] += coreSeconds
	f.total += coreSeconds
}

func (f *legacyFairshare) Factor(user string) float64 {
	if f.total <= 0 {
		return 0
	}
	nUsers := len(f.usage)
	if nUsers == 0 {
		return 0
	}
	target := 1.0 / float64(nUsers)
	return target - f.usage[user]/f.total
}

func (f *legacyFairshare) Usage(user string) float64 { return f.usage[user] }

// compareAll asserts the tree and the oracle agree on usage, factor,
// and liveness for every user. Exact equality for decay ∈ {0, 0.5, 1}
// (integer charges stay exactly representable under halving); decay
// 0.7 multiplies in a different association order, so it gets a
// relative tolerance instead.
func compareAll(t *testing.T, tag string, tr *Tree, leg *legacyFairshare, users []string, exact bool) {
	t.Helper()
	for _, u := range users {
		var treeU, treeF float64
		if id, ok := tr.LookupUser(u); ok {
			treeU = tr.UsageOf(id)
			treeF = tr.Factor(id)
		} else {
			treeF = tr.NewcomerFactor()
		}
		legU := leg.Usage(u)
		legF := leg.Factor(u)
		if exact {
			if treeU != legU {
				t.Errorf("%s: usage(%s) tree=%g legacy=%g", tag, u, treeU, legU)
			}
			if treeF != legF {
				t.Errorf("%s: factor(%s) tree=%g legacy=%g", tag, u, treeF, legF)
			}
		} else {
			if !closeRel(treeU, legU, 1e-12) {
				t.Errorf("%s: usage(%s) tree=%g legacy=%g", tag, u, treeU, legU)
			}
			if !closeRel(treeF, legF, 1e-12) {
				t.Errorf("%s: factor(%s) tree=%g legacy=%g", tag, u, treeF, legF)
			}
		}
	}
	if got, want := tr.LiveLeaves(), len(leg.usage); got != want {
		t.Errorf("%s: LiveLeaves=%d legacy users=%d", tag, got, want)
	}
}

func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d < 1e-15 { // both essentially zero: cancellation noise
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// TestLazyDecayEquivalence drives the tree and the legacy per-interval
// loop through identical Record/Advance schedules and demands
// agreement for interval-skip counts k ∈ {0, 1, 7, 1000} and decay
// ∈ {0, 0.5, 1} (exact) plus the 0.7 default (tolerance).
func TestLazyDecayEquivalence(t *testing.T) {
	users := []string{"u0", "u1", "u2", "u3", "u4"}
	for _, decay := range []float64{0, 0.5, 1, 0.7} {
		exact := decay != 0.7
		for _, k := range []int64{0, 1, 7, 1000} {
			tag := fmt.Sprintf("decay=%g k=%d", decay, k)
			tr := New(Options{Interval: sim.Hour, Decay: decay})
			leg := newLegacy(sim.Hour, decay)
			// Seed charges: integer core-seconds, well above the prune
			// threshold for the k values where anything survives.
			for i, u := range users {
				amt := float64((i + 1) * 1000)
				tr.RecordNow(tr.UserID(u), amt)
				leg.Record(u, amt)
			}
			now := sim.Time(k) * sim.Time(sim.Hour)
			tr.Advance(now)
			leg.Advance(now)
			compareAll(t, tag, tr, leg, users, exact)

			// Charge again after the roll and re-check immediately
			// (record-then-read visibility) and after one more epoch.
			tr.RecordNow(tr.UserID("u0"), 500)
			leg.Record("u0", 500)
			compareAll(t, tag+" post-charge", tr, leg, users, exact)
			now += sim.Time(sim.Hour)
			tr.Advance(now)
			leg.Advance(now)
			compareAll(t, tag+" +1 epoch", tr, leg, users, exact)
		}
	}
}

// TestRandomScheduleEquivalence fuzzes interleaved records and
// advances across 25 seeds and asserts exact agreement for the exact
// decay values.
func TestRandomScheduleEquivalence(t *testing.T) {
	users := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, decay := range []float64{0, 0.5, 1} {
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr := New(Options{Interval: sim.Hour, Decay: decay})
			leg := newLegacy(sim.Hour, decay)
			now := sim.Time(0)
			for step := 0; step < 200; step++ {
				switch rng.Intn(3) {
				case 0, 1: // charge a random user an integer amount
					u := users[rng.Intn(len(users))]
					amt := float64(rng.Intn(1_000_000) + 1)
					tr.RecordNow(tr.UserID(u), amt)
					leg.Record(u, amt)
				case 2: // jump forward 0–40 epochs
					now += sim.Time(rng.Intn(41)) * sim.Time(sim.Hour)
					tr.Advance(now)
					leg.Advance(now)
				}
			}
			tr.Advance(now)
			leg.Advance(now)
			tag := fmt.Sprintf("decay=%g seed=%d", decay, seed)
			compareAll(t, tag, tr, leg, users, true)
		}
	}
}

// TestRankingMatchesSortOracle cross-checks TopK against a full sort
// of decayed usages over random schedules.
func TestRankingMatchesSortOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New(Options{Interval: sim.Hour, Decay: 0.5})
		tr.EnableRanking()
		const n = 64
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = tr.UserID(fmt.Sprintf("u%03d", i))
		}
		now := sim.Time(0)
		for step := 0; step < 300; step++ {
			if rng.Intn(10) == 0 {
				now += sim.Time(rng.Intn(5)+1) * sim.Time(sim.Hour)
				tr.Advance(now)
			} else {
				tr.RecordNow(ids[rng.Intn(n)], float64(rng.Intn(100_000)+1))
			}
		}
		// Oracle: sort live ids by decayed usage desc, NodeID asc.
		type uu struct {
			id NodeID
			u  float64
		}
		var all []uu
		for _, id := range ids {
			if v := tr.UsageOf(id); v > 0 {
				all = append(all, uu{id, v})
			}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].u != all[b].u {
				return all[a].u > all[b].u
			}
			return all[a].id < all[b].id
		})
		k := 10
		if k > len(all) {
			k = len(all)
		}
		got := tr.TopK(k, nil)
		if len(got) != k {
			t.Fatalf("seed %d: TopK len=%d want %d", seed, len(got), k)
		}
		for i := 0; i < k; i++ {
			// Equal usages may legitimately order differently between
			// the key space (log) and raw usage; compare usage values.
			if gu, wu := tr.UsageOf(got[i]), all[i].u; gu != wu {
				t.Errorf("seed %d: TopK[%d]=node %d usage %g, oracle %g", seed, i, got[i], gu, wu)
			}
		}
	}
}
