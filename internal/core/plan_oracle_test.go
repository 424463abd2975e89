package core

import (
	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/profile"
	"repro/internal/sim"
)

// The planners below search a slot for every row over a flat profile.
// No product path calls them: they are the oracles that planTable's
// pruned walks and the scheduler differential are held to.

// buildProfile constructs the availability profile of a cluster state
// in one batch pass (sort once, prefix-sum once).
func buildProfile(now sim.Time, cl *cluster.Cluster, active []*job.Job) *profile.Profile {
	var b profile.Builder
	fillBuilder(&b, now, cl, active)
	return b.Build()
}

// planJobs runs the reservation planning pass of the Maui iteration:
// jobs are placed in the given (priority) order; StartNow jobs and the
// first maxHeld blocked jobs receive holds in the profile (these are
// the reservations); later blocked jobs get an optimistic earliest
// start computed against the profile as left by the held jobs, without
// adding holds (they are backfill candidates). The profile is mutated.
func planJobs(p *profile.Profile, ordered []*job.Job, now sim.Time, maxHeld int) []Planned {
	plans := make([]Planned, 0, len(ordered))
	blocked := 0
	for _, j := range ordered {
		start := p.FindSlot(j.Cores, j.Walltime, now)
		pl := Planned{Job: j, Start: start}
		if start == now {
			pl.StartNow = true
			pl.Held = true
			p.AddHold(start, holdEnd(start, j.Walltime), j.Cores)
		} else if start < sim.Forever && blocked < maxHeld {
			pl.Held = true
			blocked++
			p.AddHold(start, holdEnd(start, j.Walltime), j.Cores)
		}
		plans = append(plans, pl)
	}
	return plans
}

// startsByID indexes planned starts for delay comparison.
func startsByID(plans []Planned) map[job.ID]sim.Time {
	m := make(map[job.ID]sim.Time, len(plans))
	for _, p := range plans {
		m[p.Job.ID] = p.Start
	}
	return m
}

// delaySet selects the jobs whose delays the extended iteration
// measures: every StartNow job plus the first delayDepth blocked jobs
// (Fig. 5: ReservationDelayDepth governs the StartLater jobs counted).
// The second result is the index (into the priority order) of the last
// measured job, or -1 when nothing is measured. A what-if plan only
// needs to run up to that index: a job's planned start depends solely
// on the holds of higher-priority jobs, so everything after the last
// measured job is dead work for delay comparison.
func delaySet(plans []Planned, delayDepth int) ([]Planned, int) {
	var out []Planned
	last := -1
	blocked := 0
	for i, p := range plans {
		switch {
		case p.StartNow:
			out = append(out, p)
			last = i
		case p.Start < sim.Forever && blocked < delayDepth:
			out = append(out, p)
			blocked++
			last = i
		}
	}
	return out, last
}
