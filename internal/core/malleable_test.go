package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/profile"
	"repro/internal/sim"
)

// malleableRM extends testRM with the MalleableManager capability.
type malleableRM struct {
	testRM
	shrinks, grows int
}

func (r *malleableRM) ShrinkJob(j *job.Job, cores int) error {
	if err := r.shrink(j, cores); err != nil {
		return err
	}
	r.shrinks++
	return nil
}

func (r *malleableRM) GrowJob(j *job.Job, cores int) (cluster.Alloc, error) {
	alloc, err := r.grow(j, cores)
	if err == nil {
		r.grows++
	}
	return alloc, err
}

// shrink and grow resize a running job the way a MalleableManager does;
// testRM itself is not one, so that tests can run without the capability.
func (r *testRM) shrink(j *job.Job, cores int) error {
	held := r.cl.AllocOf(j.ID)
	var part cluster.Alloc
	remaining := cores
	for i := len(held) - 1; i >= 0 && remaining > 0; i-- {
		take := held[i].Cores
		if take > remaining {
			take = remaining
		}
		part = append(part, cluster.Slice{NodeID: held[i].NodeID, Cores: take})
		remaining -= take
	}
	if err := r.cl.ReleasePartial(j.ID, part); err != nil {
		return err
	}
	if cores > j.DynCores {
		j.Cores -= cores - j.DynCores
		j.DynCores = 0
	} else {
		j.DynCores -= cores
	}
	return nil
}

func (r *testRM) grow(j *job.Job, cores int) (cluster.Alloc, error) {
	alloc := r.cl.Allocate(j.ID, cores)
	if alloc == nil {
		return nil, fmt.Errorf("no resources")
	}
	j.DynCores += cores
	return alloc, nil
}

func TestSchedulerShrinksMalleableForDynRequest(t *testing.T) {
	rm := &malleableRM{testRM: *newTestRM(2, 8)}
	rm.rejected = make(map[job.ID]string)
	m := &job.Job{ID: 1, Cred: job.Credentials{User: "m"}, Class: job.Malleable,
		Cores: 8, MinCores: 4, MaxCores: 8, Walltime: sim.Hour, State: job.Queued}
	rm.addRunning(m)
	e := &job.Job{ID: 2, Cred: job.Credentials{User: "e"}, Class: job.Evolving,
		Cores: 8, Walltime: sim.Hour, State: job.Queued}
	rm.addRunning(e)
	rm.dyn = []*job.DynRequest{{Job: e, Cores: 4}}
	e.State = job.DynQueued

	s := New(Options{Malleable: true}, 0)
	res := s.Iterate(0, rm)
	if res.GrantedCount() != 1 {
		t.Fatalf("grant failed: %+v", res.DynDecisions)
	}
	if rm.shrinks != 1 {
		t.Errorf("shrinks = %d", rm.shrinks)
	}
	if m.TotalCores() != 4 || e.TotalCores() != 12 {
		t.Errorf("cores after steal: m=%d e=%d", m.TotalCores(), e.TotalCores())
	}
	// The shrink is reported in the iteration result.
	found := false
	for _, rz := range res.Resizes {
		if rz.Job.ID == m.ID && rz.Cores == -4 {
			found = true
		}
	}
	if !found {
		t.Errorf("resizes = %+v", res.Resizes)
	}
}

func TestSchedulerGrowsMalleableFromIdle(t *testing.T) {
	rm := &malleableRM{testRM: *newTestRM(2, 8)}
	rm.rejected = make(map[job.ID]string)
	m := &job.Job{ID: 1, Cred: job.Credentials{User: "m"}, Class: job.Malleable,
		Cores: 8, MinCores: 4, MaxCores: 16, Walltime: sim.Hour, StartTime: 0}
	rm.addRunning(m)
	s := New(Options{Malleable: true}, 0)
	res := s.Iterate(0, rm)
	if rm.grows != 1 || m.TotalCores() != 16 {
		t.Fatalf("grow: grows=%d cores=%d (%+v)", rm.grows, m.TotalCores(), res.Resizes)
	}
}

func TestSchedulerMalleableDisabledByDefault(t *testing.T) {
	rm := &malleableRM{testRM: *newTestRM(2, 8)}
	rm.rejected = make(map[job.ID]string)
	m := &job.Job{ID: 1, Cred: job.Credentials{User: "m"}, Class: job.Malleable,
		Cores: 8, MinCores: 4, MaxCores: 16, Walltime: sim.Hour, StartTime: 0}
	rm.addRunning(m)
	s := New(Options{}, 0) // Malleable off
	s.Iterate(0, rm)
	if rm.grows != 0 || rm.shrinks != 0 {
		t.Error("resizing must be off by default")
	}
}

func TestSchedulerMalleableWithoutCapability(t *testing.T) {
	// Malleable enabled but the RM does not implement the capability:
	// the scheduler degrades gracefully (reject, no panic).
	rm := newTestRM(2, 8)
	m := &job.Job{ID: 1, Cred: job.Credentials{User: "m"}, Class: job.Malleable,
		Cores: 8, MinCores: 4, MaxCores: 8, Walltime: sim.Hour}
	rm.addRunning(m)
	e := &job.Job{ID: 2, Cred: job.Credentials{User: "e"}, Class: job.Evolving,
		Cores: 8, Walltime: sim.Hour}
	rm.addRunning(e)
	rm.dyn = []*job.DynRequest{{Job: e, Cores: 4}}
	e.State = job.DynQueued
	s := New(Options{Malleable: true}, 0)
	res := s.Iterate(0, rm)
	if res.GrantedCount() != 0 {
		t.Error("without the capability the request must be rejected")
	}
}

func TestMoldToFitBounds(t *testing.T) {
	s := New(Options{Moldable: true}, 0)
	pr := newProfileWithFree(10)
	j := &job.Job{Class: job.Moldable, Cores: 16, MinCores: 4, MaxCores: 20, Walltime: sim.Hour}
	if got := s.moldToFit(pr, j, 0); got != 10 {
		t.Errorf("mold = %d, want the 10 available", got)
	}
	// Below the minimum: no mold.
	pr2 := newProfileWithFree(3)
	if got := s.moldToFit(pr2, j, 0); got != 0 {
		t.Errorf("mold below min = %d", got)
	}
	// Abundance clamps at MaxCores.
	pr3 := newProfileWithFree(100)
	if got := s.moldToFit(pr3, j, 0); got != 20 {
		t.Errorf("mold clamp = %d", got)
	}
	// Non-moldable class or disabled option: 0.
	rigid := &job.Job{Class: job.Rigid, Cores: 16, MinCores: 4}
	if s.moldToFit(pr, rigid, 0) != 0 {
		t.Error("rigid jobs never mold")
	}
	off := New(Options{}, 0)
	if off.moldToFit(pr, j, 0) != 0 {
		t.Error("disabled molding")
	}
	// Unset bounds default to the request size.
	plain := &job.Job{Class: job.Moldable, Cores: 8, Walltime: sim.Hour}
	if got := s.moldToFit(newProfileWithFree(100), plain, 0); got != 8 {
		t.Errorf("default bounds mold = %d", got)
	}
}

func TestSchedulerFairshareAccessor(t *testing.T) {
	s := New(Options{}, 0)
	if s.Fairshare() == nil {
		t.Fatal("Fairshare accessor")
	}
	s.Fairshare().Record("u", 100)
	if s.Fairshare().Usage("u") != 100 {
		t.Error("recorded usage")
	}
}

// newProfileWithFree builds a flat profile for moldToFit tests.
func newProfileWithFree(free int) *profile.SegProfile {
	return profile.NewSeg(0, free)
}
