package profile

import (
	"testing"

	"repro/internal/sim"
)

// These tests pin the allocation behavior of the planning hot path:
// regressions that reintroduce per-request churn fail here long before
// they show up in end-to-end benchmarks.

func TestCloneAllocs(t *testing.T) {
	p := buildBusy()
	allocs := testing.AllocsPerRun(100, func() {
		p.Clone()
	})
	if allocs > 2 {
		t.Errorf("Profile.Clone allocates %.0f times per call, want <= 2 (struct + steps)", allocs)
	}
}

func TestCloneIntoAllocs(t *testing.T) {
	p := buildBusy()
	var scratch Profile
	p.CloneInto(&scratch) // warm the scratch buffer
	allocs := testing.AllocsPerRun(100, func() {
		p.CloneInto(&scratch)
	})
	if allocs != 0 {
		t.Errorf("Profile.CloneInto on a warm scratch allocates %.0f times per call, want 0", allocs)
	}
}

func TestAddHoldAllocs(t *testing.T) {
	p := buildBusy()
	start, end := 10*sim.Minute, 70*sim.Minute
	p.AddHold(start, end, 1) // boundaries now exist; later holds reuse them
	allocs := testing.AllocsPerRun(100, func() {
		p.AddHold(start, end, 1)
	})
	if allocs != 0 {
		t.Errorf("Profile.AddHold on existing boundaries allocates %.0f times per call, want 0", allocs)
	}
}

func TestBuildIntoAllocs(t *testing.T) {
	b := NewBuilder(0, 64)
	var scratch Profile
	fill := func() {
		b.Reset(0, 64)
		for i := 0; i < 50; i++ {
			b.Release(sim.Time(i+1)*sim.Minute, 2)
			b.Hold(sim.Time(i+1)*30*sim.Second, sim.Time(i+2)*30*sim.Second, 1)
		}
	}
	fill()
	b.BuildInto(&scratch) // warm builder and scratch storage
	allocs := testing.AllocsPerRun(100, func() {
		fill()
		b.BuildInto(&scratch)
	})
	if allocs != 0 {
		t.Errorf("Builder.BuildInto on warm storage allocates %.0f times per call, want 0", allocs)
	}
}
