package core

import (
	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/profile"
	"repro/internal/sim"
)

// Planned is the outcome of the planning pass for one queued job: the
// earliest start the scheduler found, and whether the job's slot is
// protected by a hold (it will start now, or it is within reservation
// depth).
type Planned struct {
	Job   *job.Job
	Start sim.Time
	// Held reports whether the plan placed a hold (StartNow jobs and
	// the first maxHeld blocked jobs — Maui reservations).
	Held bool
	// StartNow reports whether the job can start immediately.
	StartNow bool
	// idx is the job's position in the priority order of the table the
	// plan ran against; what-if overlays use it to look up candidate
	// starts without a map.
	idx int
}

// fillBuilder loads the availability deltas of a cluster state into a
// batch builder: idle cores now, plus the walltime-based releases of
// all active jobs (including any dynamically acquired cores, which are
// reserved until the evolving job's walltime end, §III-D). It returns
// the earliest release boundary — the horizon before which the profile
// shape cannot change without a cluster event, which bounds how long
// the event-driven requeue may keep skipping iterations.
func fillBuilder(b *profile.Builder, now sim.Time, cl *cluster.Cluster, active []*job.Job) sim.Time {
	b.Reset(now, cl.IdleCores())
	next := sim.Forever
	for _, j := range active {
		end := j.StartTime + j.Walltime
		if end <= now {
			// Job overran its walltime (possible in live mode between
			// enforcement passes): assume imminent release.
			end = now + sim.Second
		}
		if end < next {
			next = end
		}
		b.Release(end, j.TotalCores())
	}
	return next
}

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

// planTable is planJobs plus delaySet over the struct-of-arrays job
// table: rows [0, upTo) are placed in priority order against p, which is
// mutated with the Maui holds (StartNow rows plus the first maxHeld
// blocked), and the delay-measured subset — every StartNow row plus the
// first delayDepth blocked, delaySet's selection — is appended to
// measured and returned. need lists, ascending by idx, the rows whose
// planned start the caller reads back from starts[idx]: the what-if
// side's starts for the rows the base side measured.
//
// Once maxHeld rows are held and delayDepth measured, a row can change
// the plan only by starting now: a later start places no hold and is not
// measured. The walk then prunes as the final walk does, and exactly so.
// A row wider than the cores free at now cannot start now and is passed
// over without the slot search, as is one at least as wide and as long
// as a request already found not to start now (noFit) — holds only take
// capacity away. With no free cores left, or a frontier that covers the
// least any row asks for, nothing behind starts now and the walk ends
// (a row of no cores starts now on any profile, so a table holding one
// never ends for want of free cores). A need row is never passed over:
// its start is what the caller measures. The rows of need that lie
// beyond the end are searched against the profile as the walk left it,
// which is the profile every later row would have seen.
func planTable(p *profile.SegProfile, t *jobTable, upTo int, now sim.Time, maxHeld, delayDepth int, need []Planned, starts []sim.Time, measured []Planned) []Planned {
	held, blocked := 0, 0
	i := 0
	for ; i < upTo && (held < maxHeld || blocked < delayDepth); i++ {
		cores, wall := int(t.cores[i]), t.wall[i]
		start := p.FindSlot(cores, wall, now)
		if starts != nil {
			starts[i] = start
		}
		switch {
		case start == now:
			p.AddHold(now, holdEnd(now, wall), cores)
			measured = append(measured, Planned{Job: t.jobs[i], Start: now, Held: true, StartNow: true, idx: i})
		case start < sim.Forever:
			if held < maxHeld {
				held++
				p.AddHold(start, holdEnd(start, wall), cores)
			}
			if blocked < delayDepth {
				blocked++
				measured = append(measured, Planned{Job: t.jobs[i], Start: start, Held: true, idx: i})
			}
		}
	}
	for len(need) > 0 && need[0].idx < i {
		need = need[1:]
	}

	// Every hold placed and every blocked row measured: only a start now
	// counts from here on.
	freeNow := p.FreeAt(now)
	var tried noFit
	skips := 0
	next := upTo // the next need row
	if len(need) > 0 {
		next = need[0].idx
	}
	for ; i < upTo; i++ {
		if freeNow <= 0 && t.minCores > 0 {
			break
		}
		cores := int(t.cores[i])
		if i == next {
			need = need[1:]
			next = upTo
			if len(need) > 0 {
				next = need[0].idx
			}
		} else if cores > freeNow || tried.rulesOut(cores, t.wall[i]) {
			skips++
			continue
		}
		wall := t.wall[i]
		start := p.FindSlot(cores, wall, now)
		if starts != nil {
			starts[i] = start
		}
		if start == now {
			p.AddHold(now, holdEnd(now, wall), cores)
			measured = append(measured, Planned{Job: t.jobs[i], Start: now, Held: true, StartNow: true, idx: i})
			freeNow = p.FreeAt(now)
			continue
		}
		tried.add(cores, wall)
		if tried.rulesOut(int(t.minCores), t.minWall) {
			break
		}
	}
	t.whatIfSkips += uint64(skips)
	for _, q := range need {
		starts[q.idx] = p.FindSlot(int(t.cores[q.idx]), t.wall[q.idx], now)
	}
	return measured
}

func holdEnd(start sim.Time, wall sim.Duration) sim.Time {
	if wall >= sim.Forever-start {
		return sim.Forever
	}
	return start + wall
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
