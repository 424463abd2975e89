package fairtree

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// build1M returns a tree populated with nUsers leaves spread over
// nGroups interior nodes, every leaf charged once.
func buildBig(b *testing.B, nUsers, nGroups int) (*Tree, []NodeID) {
	b.Helper()
	tr := New(Options{Interval: sim.Hour, Decay: 0.5})
	ids := make([]NodeID, nUsers)
	if nGroups > 1 {
		groups := make([]NodeID, nGroups)
		for g := range groups {
			groups[g] = tr.Child(tr.Root(), fmt.Sprintf("g%05d", g))
		}
		for i := range ids {
			ids[i] = tr.Child(groups[i%nGroups], fmt.Sprintf("u%07d", i))
		}
	} else {
		for i := range ids {
			ids[i] = tr.UserID(fmt.Sprintf("u%07d", i))
		}
	}
	for i, id := range ids {
		tr.RecordNow(id, float64(i%1000+1))
	}
	return tr, ids
}

// BenchmarkFactor1M measures a priority-factor read with one million
// live users in a flat tree — the scheduler hot path. Acceptance
// target: ≤200ns.
func BenchmarkFactor1M(b *testing.B) {
	tr, ids := buildBig(b, 1_000_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tr.Factor(ids[i%len(ids)])
	}
	_ = sink
}

// BenchmarkFactorHier1M is the same read on a two-level hierarchy
// (10k groups × 100 users).
func BenchmarkFactorHier1M(b *testing.B) {
	tr, ids := buildBig(b, 1_000_000, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tr.Factor(ids[i%len(ids)])
	}
	_ = sink
}

// BenchmarkRecordNow measures the completion-path charge: one leaf and
// its ancestors updated in place.
func BenchmarkRecordNow(b *testing.B) {
	tr, ids := buildBig(b, 100_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RecordNow(ids[i%len(ids)], 1)
	}
}

// BenchmarkAdvance1M measures an epoch roll over one million live
// leaves: lazy decay means no per-leaf sweep, only death-heap pops.
func BenchmarkAdvance1M(b *testing.B) {
	tr, _ := buildBig(b, 1_000_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		now += sim.Time(sim.Hour)
		tr.Advance(now)
	}
}

// BenchmarkTopKRanked measures the heaviest-users query through the
// indexed heap; BenchmarkTopKRescan is the full-rescan strawman it
// replaces. Their ratio is the O(log n) maintenance win.
func BenchmarkTopKRanked(b *testing.B) {
	tr, _ := buildBig(b, 0, 1)
	tr.EnableRanking()
	ids := make([]NodeID, 100_000)
	for i := range ids {
		ids[i] = tr.UserID(fmt.Sprintf("u%07d", i))
	}
	for i, id := range ids {
		tr.RecordNow(id, float64(i%1000+1))
	}
	out := make([]NodeID, 0, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RecordNow(ids[i%len(ids)], 1)
		out = tr.TopK(10, out[:0])
	}
}

func BenchmarkTopKRescan(b *testing.B) {
	tr, ids := buildBig(b, 100_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RecordNow(ids[i%len(ids)], 1)
		// Strawman: scan every leaf for the top 10 by decayed usage.
		var top [10]NodeID
		var topU [10]float64
		for _, id := range ids {
			u := tr.UsageOf(id)
			if u > topU[9] {
				k := 9
				for k > 0 && u > topU[k-1] {
					top[k] = top[k-1]
					topU[k] = topU[k-1]
					k--
				}
				top[k] = id
				topU[k] = u
			}
		}
		_ = top
	}
}
