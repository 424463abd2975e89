package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/fairness"
	"repro/internal/fairtree"
	"repro/internal/job"
	"repro/internal/profile"
	"repro/internal/sim"
)

// ResourceManager is the scheduler's view of the resource manager
// (Torque in the paper). The simulator and the live server both
// implement it; the scheduler makes decisions and invokes the
// mutating calls, observing their effect through Cluster().
type ResourceManager interface {
	// Cluster returns the live resource state. The scheduler reads it
	// and sees mutations made by StartJob/GrantDyn immediately.
	Cluster() *cluster.Cluster
	// QueuedJobs returns the static jobs waiting for allocation.
	QueuedJobs() []*job.Job
	// ActiveJobs returns jobs currently holding resources, maybe in the
	// RM's own slice: read-only, valid until the RM next mutates.
	ActiveJobs() []*job.Job
	// DynRequests returns pending dynamic requests in FIFO order.
	DynRequests() []*job.DynRequest
	// StartJob allocates resources for a queued job and starts it.
	StartJob(j *job.Job) (cluster.Alloc, error)
	// GrantDyn expands a running job's allocation per the request.
	GrantDyn(r *job.DynRequest) (cluster.Alloc, error)
	// RejectDyn declines a dynamic request; the application continues
	// on its current allocation (and may retry later).
	RejectDyn(r *job.DynRequest, reason string)
	// Preempt stops a running job and requeues it (used only when the
	// site enables PREEMPTPOLICY REQUEUE for dynamic requests).
	Preempt(j *job.Job) error
}

// ChangeTracker is the optional ResourceManager capability behind
// event-driven requeue. StateEpoch advances on every externally
// visible mutation (submit, start, completion, cancel, preemption,
// resize, dynamic request arrival or resolution); QueueEpoch advances
// on the subset that changes queue membership or a queued job's
// priority inputs. The scheduler uses StateEpoch to skip idle
// iterations outright and QueueEpoch to reuse the sorted job table
// across iterations.
type ChangeTracker interface {
	StateEpoch() uint64
	QueueEpoch() uint64
}

// QueueLogger is the optional ChangeTracker capability that lets the
// sorted job table follow the queue instead of being refilled from it:
// QueueChanges names, oldest first, the job behind every QueueEpoch
// advance after since — submitted, cancelled, started, requeued; a job
// may be named more than once — or reports false when the RM's log no
// longer reaches back that far. What a queued job's priority is computed
// from must not change while it stays queued. The slice is the RM's own,
// valid until the RM next mutates. QueueLog implements it for an RM to
// embed.
type QueueLogger interface {
	QueueChanges(since uint64) (changed []*job.Job, ok bool)
}

// Options bundles the scheduler configuration.
type Options struct {
	Config  *config.SchedConfig
	Weights PriorityWeights
	// MaxIdleJobsPerUser throttles eligibility: at most this many
	// queued jobs per user are considered each iteration (0 = all).
	MaxIdleJobsPerUser int
	// StrictSystemPriority enforces the ESP Z-job rule: while any job
	// with SystemPriority > 0 is queued, only such jobs may start and
	// backfill is disabled.
	StrictSystemPriority bool
	// DynRequestsAfterBackfill inverts Algorithm 2's ordering and
	// serves dynamic requests only from what backfilling left over.
	// The paper argues for dynamic-before-backfill (§IV-B); this
	// switch exists for the ablation benchmark.
	DynRequestsAfterBackfill bool
	// Malleable enables scheduler-initiated resizing of malleable
	// jobs when the ResourceManager implements MalleableManager:
	// shrink to serve dynamic requests, grow from leftover idle
	// cores (§VI future work).
	Malleable bool
	// Moldable lets the scheduler adjust moldable jobs' requests
	// within [MinCores, MaxCores] before start (§I taxonomy).
	Moldable bool
}

// DynDecision records the outcome of one dynamic request.
type DynDecision struct {
	Req     *job.DynRequest
	Granted bool
	Reason  string // rejection reason
	// Deferred marks a negotiable request (one with a deadline) that
	// could not be served this iteration and stays queued — the
	// negotiation protocol of §III-C.
	Deferred bool
	// AvailableAt is the batch system's estimate of when the requested
	// resources could become free (walltime-based), reported on
	// insufficient-resource outcomes; sim.Forever when never.
	AvailableAt sim.Time
	// Delays are the measured per-job delays that informed the
	// fairness decision (granted or not). The slice is owned by the
	// IterationResult: observers that retain it past the next Iterate
	// must copy it first.
	Delays []fairness.JobDelay
}

// IterationResult reports what one scheduling iteration did. The
// scheduler owns it: it stays valid until the next Iterate, which
// reuses it and every slice it owns (DynDecision.Delays included), so
// steady-state iteration generates no per-tick garbage. Observers copy
// what they keep.
type IterationResult struct {
	Now          sim.Time
	Started      []*job.Job // jobs started in priority order
	Backfilled   []*job.Job // jobs started out of order
	Reservations []Planned  // blocked jobs holding reservations
	DynDecisions []DynDecision
	Preempted    []*job.Job
	// Resizes lists scheduler-initiated malleable grow/shrink actions.
	Resizes []Resize

	// delayBuf is the arena the per-decision Delays slices are carved
	// from; it lives and dies with the result.
	delayBuf []fairness.JobDelay
}

// GrantedCount returns how many dynamic requests were granted.
func (r *IterationResult) GrantedCount() int {
	n := 0
	for _, d := range r.DynDecisions {
		if d.Granted {
			n++
		}
	}
	return n
}

// Scheduler implements the extended Maui iteration (Algorithm 2).
// When no dynamic requests are pending the iteration degenerates to
// the original Algorithm 1.
type Scheduler struct {
	opts Options
	fair *fairness.Tracker
	fs   *Fairshare

	// iterations is atomic: live daemons iterate on their own
	// goroutine while status endpoints read the count.
	iterations atomic.Uint64

	// Scratch storage reused across iterations so the hot path
	// (per-request what-if planning) stops allocating once warm.
	builder     profile.Builder
	pristineBuf profile.SegProfile
	baseBuf     profile.SegProfile
	candBuf     profile.SegProfile
	finalBuf    profile.SegProfile

	// table is the sorted struct-of-arrays snapshot of the eligible
	// queue, cached across iterations when the RM reports queue epochs.
	table jobTable
	pc    planContext

	// What-if planning scratch: dense candidate starts indexed by
	// priority order, and the two measured-set buffers — the base side's,
	// which planContext points at, and the candidate side's, which a
	// grant makes the base's.
	candStarts      []sim.Time
	measuredBuf     []Planned
	candMeasuredBuf []Planned

	// res is the result Iterate returns, reset by the next Iterate.
	res IterationResult

	// Event-driven requeue state: the last iteration's RM identity and
	// post-iteration epoch, whether any dynamic request was deferred,
	// and the earliest walltime release (profile shape is a pure
	// function of cluster state before that horizon).
	lastRM       ResourceManager
	lastEpoch    uint64
	lastNow      sim.Time
	nextRelease  sim.Time
	lastDeferred bool
	lastValid    bool
}

// planContext carries the incremental planning state of one iteration:
// the pristine availability profile (cluster releases only, no planning
// holds) and the delay-measured subset of the static queue planned
// against it. Both are built at most once per cluster-state epoch and
// reused across the FIFO dynamic requests; a grant advances the epoch
// by applying its hold incrementally instead of rebuilding from
// scratch.
type planContext struct {
	now sim.Time
	// pristine is the base availability profile; nil means stale.
	pristine *profile.SegProfile
	// idleAtBuild detects cluster mutations (starts, shrinks,
	// preemptions) that happened since pristine was built.
	idleAtBuild int
	// measured caches the delay-measured subset of the static queue
	// planned against pristine, ascending by row.
	measured  []Planned
	baseValid bool
}

// invalidate drops all cached planning state after an untracked
// cluster mutation (malleable shrink, preemption).
func (pc *planContext) invalidate() {
	pc.pristine = nil
	pc.baseValid = false
}

// ensureBase returns the pristine availability profile for the current
// cluster state, rebuilding it in one batch pass when it is stale.
func (s *Scheduler) ensureBase(pc *planContext, rm ResourceManager) *profile.SegProfile {
	cl := rm.Cluster()
	idle := cl.IdleCores()
	if pc.pristine == nil || idle != pc.idleAtBuild {
		s.nextRelease = fillBuilder(&s.builder, pc.now, cl, rm.ActiveJobs())
		pc.pristine = s.builder.BuildSegInto(&s.pristineBuf)
		pc.idleAtBuild = idle
		pc.baseValid = false
	}
	return pc.pristine
}

// New creates a scheduler. A nil cfg uses config.Default(); the
// fairness tracker starts its first interval at startTime.
func New(opts Options, startTime sim.Time) *Scheduler {
	if opts.Config == nil {
		opts.Config = config.Default()
	}
	if opts.Weights == (PriorityWeights{}) {
		opts.Weights = DefaultWeights()
	}
	s := &Scheduler{
		opts: opts,
		fair: fairness.NewTracker(opts.Config.Fairness, startTime),
		fs:   NewFairshareFromConfig(opts.Config),
	}
	// Hierarchical DFS rollup: a child's delay charge counts against
	// its ancestors' budgets too. With the degenerate flat tree this
	// adds no entities and changes nothing.
	s.fair.AttachShareTree(s.fs.Tree())
	return s
}

// FairnessTracker exposes the DFS accounting state (for reports/tests).
func (s *Scheduler) FairnessTracker() *fairness.Tracker { return s.fair }

// Fairshare exposes the historical-usage tracker; the resource manager
// records completed jobs' usage here.
func (s *Scheduler) Fairshare() *Fairshare { return s.fs }

// Iterations returns how many scheduling iterations have run.
func (s *Scheduler) Iterations() uint64 { return s.iterations.Load() }

// Options returns the scheduler's options.
func (s *Scheduler) Options() Options { return s.opts }

// maxHeld is the planning depth for delay measurement: the number of
// StartLater jobs considered is max(ReservationDepth,
// ReservationDelayDepth) per §III-C / Fig. 5.
func (s *Scheduler) maxHeld() int {
	d := s.opts.Config.ReservationDepth
	if s.opts.Config.ReservationDelayDepth > d {
		d = s.opts.Config.ReservationDelayDepth
	}
	return d
}

// selectEligible applies throttling policies (step 6 of Algorithm 1).
func (s *Scheduler) selectEligible(queued []*job.Job) []*job.Job {
	if s.opts.MaxIdleJobsPerUser <= 0 {
		return queued
	}
	perUser := make(map[string]int)
	out := queued[:0:0]
	for _, j := range queued {
		if perUser[j.Cred.User] < s.opts.MaxIdleJobsPerUser {
			perUser[j.Cred.User]++
			out = append(out, j)
		}
	}
	return out
}

// resetResult empties the scheduler's result for a new iteration at
// now, keeping its backing arrays.
func (s *Scheduler) resetResult(now sim.Time) *IterationResult {
	res := &s.res
	clear(res.Started)
	clear(res.Backfilled)
	clear(res.Reservations)
	clear(res.DynDecisions)
	clear(res.Preempted)
	clear(res.Resizes)
	clear(res.delayBuf)
	res.Started = res.Started[:0]
	res.Backfilled = res.Backfilled[:0]
	res.Reservations = res.Reservations[:0]
	res.DynDecisions = res.DynDecisions[:0]
	res.Preempted = res.Preempted[:0]
	res.Resizes = res.Resizes[:0]
	res.delayBuf = res.delayBuf[:0]
	res.Now = now
	return res
}

// Recycle does nothing. Iterate's result is owned by the scheduler and
// reused by the next Iterate, so there is nothing to hand back. The
// method is kept only because the benchmark probes under bench/ still
// call it; it goes when they stop.
func (s *Scheduler) Recycle(*IterationResult) {}

// canSkip reports whether the iteration may short-circuit: the RM's
// state epoch is unchanged since the last iteration against the same
// RM, no negotiable request is parked, virtual time has not crossed
// the earliest walltime release (before that horizon the availability
// profile is a pure function of the unchanged cluster state, and the
// pristine profile is monotone non-decreasing — a job that could not
// start then cannot start now), and no time-dependent resizing policy
// (malleable growth windows, moldable shaping) is active.
func (s *Scheduler) canSkip(ct ChangeTracker, rm ResourceManager, now sim.Time) bool {
	return s.lastValid &&
		rm == s.lastRM &&
		now >= s.lastNow &&
		now < s.nextRelease &&
		!s.lastDeferred &&
		!s.opts.Malleable &&
		!s.opts.Moldable &&
		ct.StateEpoch() == s.lastEpoch
}

// noteIteration records the post-iteration skip state. The epoch is
// captured after all of the iteration's own mutations (starts, grants,
// rejections), so the next tick skips exactly when nothing else
// happened in between. nextRelease is recomputed over the final active
// set — jobs started this iteration may release earlier than anything
// the pristine profile saw.
func (s *Scheduler) noteIteration(rm ResourceManager, now sim.Time, deferred bool) {
	ct, ok := rm.(ChangeTracker)
	if !ok {
		s.lastValid = false
		return
	}
	next := sim.Forever
	for _, j := range rm.ActiveJobs() {
		end := j.StartTime + j.Walltime
		if end <= now {
			end = now // overrun: profile shape is already time-dependent
		}
		if end < next {
			next = end
		}
	}
	s.lastValid = true
	s.lastRM = rm
	s.lastNow = now
	s.lastEpoch = ct.StateEpoch()
	s.nextRelease = next
	s.lastDeferred = deferred
}

// ensureTable brings the sorted struct-of-arrays queue snapshot up to
// date. The order is kept across iterations when the RM reports queue
// epochs and the priority weights are time-invariant (no XFactor:
// pairwise priority differences are then constant in time, so the
// sorted order cannot drift between epochs), and with a Fairshare
// weight only when it stands alone over a flat tree: in a hierarchy,
// one leaf's usage moves its cousins' factors through the shared
// ancestors, so untouched entities' relative order is no longer
// invariant. A kept order is patched (patchTable); everything else is a
// fill.
func (s *Scheduler) ensureTable(now sim.Time, rm ResourceManager) {
	t := &s.table
	ct, tracked := rm.(ChangeTracker)
	w := s.opts.Weights
	fsOrder := w.Fairshare != 0 && w.QueueTime == 0 && w.XFactor == 0 && w.Resource == 0 &&
		s.fs.tree.Flat()
	cacheable := tracked && w.XFactor == 0 && (w.Fairshare == 0 || fsOrder)
	if cacheable && t.valid && rm == s.lastRM && s.patchTable(now, rm, ct) {
		return
	}
	t.fill(s.selectEligible(rm.QueuedJobs()), now, w, s.fs)
	t.valid = cacheable
	if fsOrder {
		t.fsSerial = s.fs.tree.ChangeSerial()
	}
	if tracked {
		t.queueEpoch = ct.QueueEpoch()
	}
}

// patchTable makes the kept order current from the two change logs —
// the RM's, for queue membership (the table itself has already followed
// the starts of its own walk), and the share tree's, for the entities
// whose usage moved — and reports false when either does not reach back
// to where the table stands, or names too much for a repair to pay.
func (s *Scheduler) patchTable(now sim.Time, rm ResourceManager, ct ChangeTracker) bool {
	t := &s.table
	var changed []*job.Job
	if ct.QueueEpoch() != t.queueEpoch {
		// A per-user throttle makes eligibility depend on the rest of
		// the queue, which a list of changed jobs does not carry.
		ql, ok := rm.(QueueLogger)
		if !ok || s.opts.MaxIdleJobsPerUser > 0 {
			return false
		}
		if changed, ok = ql.QueueChanges(t.queueEpoch); !ok {
			return false
		}
	}
	var dirty []fairtree.NodeID
	if s.opts.Weights.Fairshare != 0 {
		var ok bool
		if dirty, ok = s.fs.tree.DirtySince(t.fsSerial); !ok {
			return false
		}
	}
	if len(changed)+len(dirty) == 0 {
		return true
	}
	if !t.repair(dirty, changed, now, s.opts.Weights, s.fs) {
		return false
	}
	t.queueEpoch = ct.QueueEpoch()
	if len(dirty) > 0 {
		t.fsSerial = s.fs.tree.ChangeSerial()
	}
	t.repairs++
	return true
}

// startRow starts row i's job through the RM and reports whether it
// did. A table that was in step with the RM's queue epoch stays in
// step: StartJob changes the queue membership of its job alone, so
// whatever the epoch did across the call — one advance for the start, a
// second for a dispatch that was rolled back — is this row's doing. The
// row of a started job leaves the table when the iteration ends.
func (s *Scheduler) startRow(rm ResourceManager, i int) bool {
	t := &s.table
	ct, _ := rm.(ChangeTracker)
	inStep := ct != nil && t.valid && ct.QueueEpoch() == t.queueEpoch
	alloc, err := rm.StartJob(t.jobs[i])
	if inStep {
		t.queueEpoch = ct.QueueEpoch()
	}
	if err != nil || alloc == nil {
		return false
	}
	t.started = append(t.started, int32(i))
	return true
}

// Iterate runs one scheduling iteration at virtual time now against
// the resource manager, and returns what it decided. This is
// Algorithm 2 of the paper; with an empty dynamic-request queue it is
// exactly Algorithm 1.
//
// The returned result is owned by the scheduler and valid until the
// next Iterate, which reuses it and every slice it owns.
func (s *Scheduler) Iterate(now sim.Time, rm ResourceManager) *IterationResult {
	s.iterations.Add(1)

	// Steps 2–5: obtain resource/workload information, update
	// statistics, refresh reservations (reservations are re-derived
	// from scratch below, as Maui does each iteration).
	s.fair.Advance(now)
	s.fs.Advance(now)

	res := s.resetResult(now)

	// Event-driven requeue: when the RM tracks epochs and nothing has
	// changed since the last iteration, the tick is a no-op — no queue
	// scan, no sort, no planning.
	if ct, ok := rm.(ChangeTracker); ok && s.canSkip(ct, rm, now) {
		return res
	}

	// Steps 6–9: select and prioritize eligible static jobs and
	// dynamic requests. Static jobs use the priority factors; dynamic
	// requests stay in FIFO order (the RM returns them that way).
	s.ensureTable(now, rm)
	t := &s.table
	dynReqs := rm.DynRequests()

	// Steps 10–24: schedule static jobs and create reservations
	// without starting them, then process each dynamic request in
	// FIFO order. The base profile and base plans are built once and
	// reused across requests; a grant applies its hold to the base
	// incrementally instead of rebuilding from scratch.
	pc := &s.pc
	*pc = planContext{now: now}
	deferred := false
	processDyn := func() {
		for _, req := range dynReqs {
			dec := s.processDynRequest(pc, rm, req, res)
			deferred = deferred || dec.Deferred
			res.DynDecisions = append(res.DynDecisions, dec)
		}
	}
	if !s.opts.DynRequestsAfterBackfill {
		processDyn()
	}

	// Step 25: schedule static jobs in priority order and start the
	// ones that fit now. The plan is rebuilt because granted dynamic
	// requests consumed resources.
	startNowBlocked := s.opts.StrictSystemPriority && t.nSys > 0

	// Steps 25–26 merged: walk the queue in priority order. Jobs that
	// fit now start; once a higher-priority job has blocked, further
	// starts are by definition backfill (they run out of order), which
	// is allowed only when backfill is enabled and no system-priority
	// (Z) job is waiting. The top ReservationDepth blocked jobs place
	// reservation holds so backfilled jobs cannot delay them.
	//
	// Once every hold is placed and something has blocked, the only
	// thing a row can still do is start now: it cannot block anything
	// further, and it gets no reservation. The walk then prunes, and
	// exactly so: it reads the profile's start-now staircase (startNow)
	// and jumps over the rows the fit index finds wider than the cores
	// free for their whole walltime (a moldable row: the least it may
	// shrink to). A rigid row the staircase admits starts with no slot
	// search, and each start's hold is read back into the staircase. The
	// walk ends when the index rules out the whole table, or no core is
	// free (a row of no cores never starts: Allocate refuses it); with
	// backfill off, at once.
	final := s.ensureBase(pc, rm).CloneInto(&s.finalBuf)
	noBackfill := s.opts.Config.BackfillPolicy == "NONE"
	heldBlocked := 0
	anyBlocked := false
	pruning := false
	startFailed := false
	st := &t.startNow
	for i := 0; i < t.len(); i++ {
		if !pruning && anyBlocked && heldBlocked >= s.opts.Config.ReservationDepth {
			if noBackfill {
				break
			}
			pruning = true
			st.read(final, now)
		}
		if pruning {
			if st.steps[0].Free <= 0 || !st.admits(t.fit[1]) {
				break
			}
			k := t.nextFit(i, t.len(), st)
			t.finalSkips += uint64(k - i)
			if i = k; i == t.len() {
				break
			}
			if startNowBlocked && t.sys[i] == 0 {
				t.finalSkips++
				continue
			}
		}
		j := t.jobs[i]
		cores, wall := int(t.cores[i]), t.wall[i]
		start := now
		if !pruning || t.mold[i] {
			start = final.FindSlot(cores, wall, now)
		}
		suppressed := (startNowBlocked && t.sys[i] == 0) || (anyBlocked && noBackfill)
		if !suppressed && t.mold[i] {
			// Moldable jobs: reshape the request to start now (down)
			// or to exploit abundance (up) before committing.
			if c := s.moldToFit(final, j, now); c > 0 && c != cores {
				j.Cores = c
				t.cores[i] = int32(c)
				t.valid = false // cached order must not outlive the reshape
				cores = c
				start = now
			}
		}
		if start == now && !suppressed {
			// Mark out-of-order starts before dispatch so the RM can
			// log them as backfills.
			j.Backfilled = anyBlocked
			if s.startRow(rm, i) {
				if anyBlocked {
					res.Backfilled = append(res.Backfilled, j)
				} else {
					res.Started = append(res.Started, j)
				}
				s.fair.ForgetJob(j.ID)
				final.AddHold(now, holdEnd(now, wall), cores)
				if pruning {
					st.read(final, now)
				}
				continue
			}
			// Node-level fragmentation or a race in live mode: the
			// core count fits but placement failed; treat as blocked.
			j.Backfilled = false
			anyBlocked = true
			startFailed = true
			continue
		}
		if start > now {
			anyBlocked = true
		}
		if start > now && start < sim.Forever && heldBlocked < s.opts.Config.ReservationDepth {
			heldBlocked++
			final.AddHold(start, holdEnd(start, wall), cores)
			res.Reservations = append(res.Reservations, Planned{Job: j, Start: start, Held: true})
		}
	}
	if s.opts.DynRequestsAfterBackfill {
		processDyn()
	}

	// Malleable growth: leftover idle cores go to running malleable
	// jobs, never into reservation windows.
	s.growMalleable(now, rm, final, res)

	// A strict-priority pass that started anything is not necessarily a
	// fixed point: startNowBlocked was computed before the loop, so the
	// tick that starts the last queued Z job still suppresses every
	// normal job behind it even though nothing suppresses them anymore.
	// Treat the iteration as unsettled so the next tick replans instead
	// of skipping on the post-iteration epoch. A start the RM refused is
	// no fixed point either (the next tick tries it again), nor is a
	// grant or a preemption made after the walk, whose cores the walk
	// planned without.
	unsettled := startFailed || startNowBlocked && len(res.Started)+len(res.Backfilled) > 0 ||
		s.opts.DynRequestsAfterBackfill && res.GrantedCount()+len(res.Preempted) > 0
	s.noteIteration(rm, now, deferred || unsettled)
	if t.valid {
		t.extract(t.started)
	}
	t.started = t.started[:0]
	return res
}

// processDynRequest implements lines 12–23 of Algorithm 2 for one
// dynamic request: allocate from idle (before preemptible) resources,
// measure the delays a grant would cause to the StartNow and
// StartLater jobs, gate on the dynamic fairness policies, then grant
// or reject.
func (s *Scheduler) processDynRequest(pc *planContext, rm ResourceManager, req *job.DynRequest, res *IterationResult) DynDecision {
	now := pc.now
	dec := DynDecision{Req: req}
	cl := rm.Cluster()
	need := req.TotalCores()
	if err := req.Validate(); err != nil {
		rm.RejectDyn(req, err.Error())
		dec.Reason = err.Error()
		return dec
	}
	if !req.Job.Active() {
		dec.Reason = "job no longer active"
		rm.RejectDyn(req, dec.Reason)
		return dec
	}

	// Allocation sources in the §II-B order: idle resources first,
	// then stealing from malleable jobs, then preemption (if enabled).
	if cl.IdleCores() < need {
		preempted, resized := len(res.Preempted), len(res.Resizes)
		ok := s.shrinkMalleable(now, rm, need, res)
		if !ok && s.opts.Config.PreemptPolicy == "REQUEUE" {
			ok = s.tryPreempt(now, rm, need, res)
		}
		if len(res.Preempted) != preempted || len(res.Resizes) != resized {
			// Shrinks and preemptions changed the release schedule, not
			// just the idle count; rebuild the base from scratch.
			pc.invalidate()
		}
		if !ok {
			// Estimate when the resources could become free — the
			// "time of availability" half of the negotiation protocol.
			dec.AvailableAt = s.estimateAvailability(pc, rm, req, need)
			if req.Negotiable() && !req.Expired(now) {
				// Deferred: the request stays queued at the server and
				// is retried every iteration until grant or deadline.
				dec.Deferred = true
				return dec
			}
			dec.Reason = fmt.Sprintf("insufficient resources (%d idle, %d needed; estimated available %s)",
				cl.IdleCores(), need, sim.FormatTime(dec.AvailableAt))
			rm.RejectDyn(req, dec.Reason)
			return dec
		}
	}

	// Measure delays: plan the static queue with and without the
	// hypothetical grant. The grant holds the extra cores until the
	// evolving job's walltime end (dynamic reservations run to the
	// rest of the walltime, §III-D). The base side comes from the
	// per-iteration cache; the candidate side is a what-if overlay on
	// a reused scratch clone. Both walks prune once their holds are
	// placed, and the candidate walk searches a slot for every row the
	// base side measured (its need list) wherever it prunes or ends —
	// the cost follows the perturbation's reach, not the queue.
	evolveEnd := req.Job.StartTime + req.Job.Walltime
	if evolveEnd <= now {
		evolveEnd = now + sim.Second
	}
	base := s.ensureBase(pc, rm)
	candP := base.CloneInto(&s.candBuf)
	candP.AddHold(now, evolveEnd, need)

	t := &s.table
	n := t.len()
	s.candStarts = slices.Grow(s.candStarts[:0], n)[:n]
	maxHeld, delayDepth := s.maxHeld(), s.opts.Config.ReservationDelayDepth
	// A base plan made this request covers the whole queue on both sides,
	// so the candidate's measured set is the base's for the next request
	// once the grant is folded in; a cached base needs the candidate plan
	// only up to its last measured row — a planned start depends solely on
	// the holds of higher-priority rows.
	candFull := !pc.baseValid
	upTo := n
	if candFull {
		s.measuredBuf = planTable(base.CloneInto(&s.baseBuf), t, n, now, maxHeld, delayDepth, nil, nil, s.measuredBuf[:0])
		pc.measured, pc.baseValid = s.measuredBuf, true
	} else {
		upTo = 0
		if k := len(pc.measured); k > 0 {
			upTo = pc.measured[k-1].idx + 1
		}
	}
	candMeasured := planTable(candP, t, upTo, now, maxHeld, delayDepth, pc.measured, s.candStarts, s.candMeasuredBuf[:0])
	s.candMeasuredBuf = candMeasured

	measured := pc.measured
	delayStart := len(res.delayBuf)
	for _, p := range measured {
		cand := s.candStarts[p.idx]
		d := cand - p.Start
		if cand == sim.Forever || p.Start == sim.Forever {
			d = 0
			if cand == sim.Forever && p.Start < sim.Forever {
				// The grant would push the job out entirely (only
				// possible with infinite walltimes); treat as the
				// remaining hold length.
				d = evolveEnd - now
			}
		}
		if d < 0 {
			d = 0
		}
		res.delayBuf = append(res.delayBuf, fairness.JobDelay{Job: p.Job, Delay: d})
	}
	delays := res.delayBuf[delayStart:len(res.delayBuf):len(res.delayBuf)]
	dec.Delays = delays

	// Lines 14–20: the dynamic fairness gate.
	verdict := s.fair.Evaluate(req.Job.Cred, delays)
	if !verdict.Allowed {
		if req.Negotiable() && !req.Expired(now) {
			// A later iteration may measure smaller delays (victims
			// start, budgets decay): keep negotiating.
			dec.Deferred = true
			dec.Reason = verdict.Reason
			return dec
		}
		dec.Reason = verdict.Reason
		rm.RejectDyn(req, dec.Reason)
		return dec
	}
	alloc, err := rm.GrantDyn(req)
	if err != nil || alloc == nil {
		dec.Reason = fmt.Sprintf("allocation failed: %v", err)
		rm.RejectDyn(req, dec.Reason)
		return dec
	}
	s.fair.Charge(req.Job.Cred, delays)
	dec.Granted = true

	// Fold the grant into the cached base incrementally: the granted
	// cores are held from now to the evolving job's walltime end, which
	// is exactly the delta a from-scratch rebuild would observe.
	pc.pristine.AddHold(now, evolveEnd, need)
	pc.idleAtBuild -= need
	if candFull {
		// The full-queue candidate plan was computed against exactly
		// this profile — its measured set becomes the new base cache
		// for free.
		s.measuredBuf, s.candMeasuredBuf = candMeasured, s.measuredBuf[:0]
		pc.measured = s.measuredBuf
	} else {
		pc.baseValid = false
	}
	return dec
}

// estimateAvailability computes the earliest walltime-based instant at
// which the requested cores could be continuously free for the rest of
// the evolving job's walltime. It reads the iteration's cached base
// profile (FindSlot does not mutate) instead of rebuilding one.
func (s *Scheduler) estimateAvailability(pc *planContext, rm ResourceManager, req *job.DynRequest, need int) sim.Time {
	dur := req.Job.RemainingWalltime(pc.now)
	if dur <= 0 {
		dur = sim.Second
	}
	return s.ensureBase(pc, rm).FindSlot(need, dur, pc.now)
}

// tryPreempt frees cores for a dynamic request by requeueing
// backfilled or explicitly preemptible running jobs, lowest priority
// first. Returns true if after preemption enough cores are idle.
func (s *Scheduler) tryPreempt(now sim.Time, rm ResourceManager, need int, res *IterationResult) bool {
	cl := rm.Cluster()
	var victims []*job.Job
	for _, j := range rm.ActiveJobs() {
		if j.Backfilled || j.Preemptible {
			victims = append(victims, j)
		}
	}
	// Lowest priority first = reverse of the priority order.
	SortByPriority(victims, now, s.opts.Weights, s.fs)
	for i := len(victims) - 1; i >= 0 && cl.IdleCores() < need; i-- {
		if err := rm.Preempt(victims[i]); err != nil {
			continue
		}
		res.Preempted = append(res.Preempted, victims[i])
	}
	return cl.IdleCores() >= need
}
