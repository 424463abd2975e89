package rms

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
)

// ResizableApp is the optional application interface for malleable
// jobs: the server calls OnResize after a scheduler-initiated shrink
// or grow so the application can adapt its completion estimate.
type ResizableApp interface {
	OnResize(s *Server, j *job.Job, now sim.Time)
}

// ShrinkJob releases cores cores from a running malleable job — the
// scheduler-initiated half of malleability (core.MalleableManager).
func (s *Server) ShrinkJob(j *job.Job, cores int) error {
	if j.Class != job.Malleable {
		return fmt.Errorf("rms: %s is not malleable", j.ID)
	}
	if !j.Active() {
		return fmt.Errorf("rms: %s is not running", j.ID)
	}
	if cores <= 0 || cores > j.ShrinkableBy() {
		return fmt.Errorf("rms: %s cannot release %d cores (shrinkable by %d)", j.ID, cores, j.ShrinkableBy())
	}
	// Pick slices to release from the tail of the allocation.
	held := s.Cluster().AllocOf(j.ID)
	var part cluster.Alloc
	remaining := cores
	for i := len(held) - 1; i >= 0 && remaining > 0; i-- {
		take := min(held[i].Cores, remaining)
		part = append(part, cluster.Slice{NodeID: held[i].NodeID, Cores: take})
		remaining -= take
	}
	if err := s.Shrink(j, part, s.eng.Now()); err != nil {
		return err
	}
	s.notifyResize(j)
	return nil
}

// GrowJob adds cores cores to a running malleable job from idle
// resources (core.MalleableManager).
func (s *Server) GrowJob(j *job.Job, cores int) (cluster.Alloc, error) {
	if j.Class != job.Malleable {
		return nil, fmt.Errorf("rms: %s is not malleable", j.ID)
	}
	if !j.Active() {
		return nil, fmt.Errorf("rms: %s is not running", j.ID)
	}
	if cores <= 0 || cores > j.GrowableBy() {
		return nil, fmt.Errorf("rms: %s cannot accept %d cores (growable by %d)", j.ID, cores, j.GrowableBy())
	}
	alloc, err := s.Grow(j, cores, s.eng.Now())
	if err != nil {
		return nil, err
	}
	s.notifyResize(j)
	return alloc, nil
}

func (s *Server) notifyResize(j *job.Job) {
	if app, ok := s.apps[j.ID].(ResizableApp); ok {
		app.OnResize(s, j, s.eng.Now())
	}
}

// MalleableWorkApp models a malleable application with a fixed amount
// of perfectly divisible work (in core-seconds): its completion time
// tracks the current allocation, re-estimated at every resize.
type MalleableWorkApp struct {
	// Work is the total compute demand in core-seconds.
	Work float64

	remaining float64
	lastT     sim.Time
	coresThen int
}

// OnStart begins computing on the initial allocation.
func (a *MalleableWorkApp) OnStart(s *Server, j *job.Job, now sim.Time) {
	a.remaining = a.Work
	a.lastT = now
	a.coresThen = j.TotalCores()
	a.reschedule(s, j, now)
}

// advance accounts the work done since the last event.
func (a *MalleableWorkApp) advance(now sim.Time) {
	done := sim.SecondsOf(now-a.lastT) * float64(a.coresThen)
	a.remaining = max(0, a.remaining-done)
	a.lastT = now
}

func (a *MalleableWorkApp) reschedule(s *Server, j *job.Job, now sim.Time) {
	cores := j.TotalCores()
	a.coresThen = cores
	if cores <= 0 {
		return
	}
	end := now + sim.Seconds(a.remaining/float64(cores))
	s.ScheduleCompletion(j, end)
}

// OnResize re-estimates completion after a scheduler-initiated
// shrink or grow.
func (a *MalleableWorkApp) OnResize(s *Server, j *job.Job, now sim.Time) {
	a.advance(now)
	a.reschedule(s, j, now)
}

// OnDynResult also adapts — a malleable job may additionally evolve.
func (a *MalleableWorkApp) OnDynResult(s *Server, j *job.Job, granted bool, now sim.Time) {
	if granted {
		a.advance(now)
		a.reschedule(s, j, now)
	}
}

// OnPreempt resets progress (requeued jobs restart from scratch).
func (a *MalleableWorkApp) OnPreempt(s *Server, j *job.Job, now sim.Time) {
	a.remaining = a.Work
}
