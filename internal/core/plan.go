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
// measured. The walk then prunes as the final walk does, and exactly so:
// it jumps to the next row the start-now staircase admits, read again
// after each start, and starts a rigid one with no slot search; it ends
// when the index rules out the whole table. A need row is never passed
// over: its start is what the caller measures. The rows of need beyond
// the end are searched against the profile as the walk left it, which
// is the profile every later row would have seen.
func planTable(p *profile.SegProfile, t *jobTable, upTo int, now sim.Time, maxHeld, delayDepth int, need []Planned, starts []sim.Time, measured []Planned) []Planned {
	held, blocked, skips := 0, 0, 0
	st, stale := &t.startNow, true
	next := upTo // the next need row
	if len(need) > 0 {
		next = need[0].idx
	}
	for i := 0; i < upTo; i++ {
		pruning := held >= maxHeld && blocked >= delayDepth
		if pruning {
			if stale {
				st.read(p, now)
				stale = false
			}
			if !st.admits(t.fit[1]) {
				break
			}
			k := t.nextFit(i, next, st)
			skips += k - i
			if i = k; i == upTo {
				break
			}
		}
		fits := pruning && i < next && !t.mold[i]
		if i == next {
			need = need[1:]
			next = upTo
			if len(need) > 0 {
				next = need[0].idx
			}
		}
		cores, wall := int(t.cores[i]), t.wall[i]
		start := now
		if !fits {
			start = p.FindSlot(cores, wall, now)
		}
		if starts != nil {
			starts[i] = start
		}
		switch {
		case start == now:
			p.AddHold(now, holdEnd(now, wall), cores)
			measured = append(measured, Planned{Job: t.jobs[i], Start: now, Held: true, StartNow: true, idx: i})
			stale = true
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
