package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/fairness"
	"repro/internal/job"
	"repro/internal/profile"
	"repro/internal/sim"
)

// trackedRM wraps testRM with core.ChangeTracker so tests can exercise
// the kept job table and the event-driven skip. Scheduler-driven mutations bump epochs here;
// test-driver mutations must call bump/bumpQueue/bumpQueueFor
// themselves. It keeps a queue change log but does not hand it out:
// loggedRM does. It is a MalleableManager, which only matters to a
// scheduler with Options.Malleable set.
type trackedRM struct {
	testRM
	epoch uint64
	qlog  QueueLog
}

func (r *trackedRM) StateEpoch() uint64 { return r.epoch }
func (r *trackedRM) QueueEpoch() uint64 { return r.qlog.Epoch() }
func (r *trackedRM) bump()              { r.epoch++ }

// bumpQueue is a queue change the log cannot name; bumpQueueFor names
// the job.
func (r *trackedRM) bumpQueue()              { r.epoch++; r.qlog.Bump(nil) }
func (r *trackedRM) bumpQueueFor(j *job.Job) { r.epoch++; r.qlog.Bump(j) }

// StartJob bumps the way serverd does: once for the start, once more
// when the dispatch fails and the job goes back on the queue, not at all
// when nothing could be allocated.
func (r *trackedRM) StartJob(j *job.Job) (cluster.Alloc, error) {
	dispatchFails := r.failStart[j.ID]
	alloc, err := r.testRM.StartJob(j)
	switch {
	case err == nil:
		r.bumpQueueFor(j)
	case dispatchFails && !r.failStart[j.ID]: // allocated, dispatched, rolled back
		r.bumpQueueFor(j)
		r.bumpQueueFor(j)
	}
	return alloc, err
}

func (r *trackedRM) ShrinkJob(j *job.Job, cores int) error {
	r.bump()
	return r.shrink(j, cores)
}

func (r *trackedRM) GrowJob(j *job.Job, cores int) (cluster.Alloc, error) {
	r.bump()
	return r.grow(j, cores)
}

// loggedRM is a trackedRM that is a core.QueueLogger too. overflow makes
// the next read of the log fail, as one that was trimmed past the reader
// does.
type loggedRM struct {
	*trackedRM
	overflow bool
}

func (r *loggedRM) QueueChanges(since uint64) ([]*job.Job, bool) {
	if r.overflow {
		r.overflow = false
		return nil, false
	}
	return r.qlog.Since(since)
}

func (r *trackedRM) GrantDyn(req *job.DynRequest) (cluster.Alloc, error) {
	r.bump()
	return r.testRM.GrantDyn(req)
}

func (r *trackedRM) RejectDyn(req *job.DynRequest, reason string) {
	r.bump()
	r.testRM.RejectDyn(req, reason)
}

func (r *trackedRM) Preempt(j *job.Job) error {
	r.bumpQueueFor(j)
	return r.testRM.Preempt(j)
}

// oracleSched replays the retained full-rebuild planning path: flat
// profiles rebuilt from the cluster state for every dynamic request
// and for the final walk, full-queue planJobs with no caching or
// pruning on either side of a what-if, a stable re-sort of the whole
// queue every iteration, and a final walk that looks for a slot for
// every row. It is the behavioural oracle the incremental scheduler
// (segmented profiles, cached base plans, pruned what-if and final walks,
// kept and patched job table, event-driven skip) is differenced against.
// Which running jobs a request shrinks or preempts is a policy, not a
// cache, so the oracle asks the scheduler's own (shadow); what follows
// them — every plan made afresh — is its own.
type oracleSched struct {
	opts Options
	fair *fairness.Tracker
	fs   *Fairshare
}

func newOracle(opts Options) *oracleSched {
	if opts.Config == nil {
		opts.Config = config.Default()
	}
	if opts.Weights == (PriorityWeights{}) {
		opts.Weights = DefaultWeights()
	}
	return &oracleSched{
		opts: opts,
		fair: fairness.NewTracker(opts.Config.Fairness, 0),
		fs:   NewFairshare(24*sim.Hour, 0.7),
	}
}

func (o *oracleSched) maxHeld() int {
	d := o.opts.Config.ReservationDepth
	if o.opts.Config.ReservationDelayDepth > d {
		d = o.opts.Config.ReservationDelayDepth
	}
	return d
}

func (o *oracleSched) iterate(now sim.Time, rm ResourceManager) *IterationResult {
	o.fair.Advance(now)
	o.fs.Advance(now)
	res := &IterationResult{Now: now}
	ordered := append([]*job.Job(nil), rm.QueuedJobs()...)
	SortByPriority(ordered, now, o.opts.Weights, o.fs)
	processDyn := func() {
		for _, req := range rm.DynRequests() {
			res.DynDecisions = append(res.DynDecisions, o.processDyn(now, rm, req, ordered, res))
		}
	}
	if !o.opts.DynRequestsAfterBackfill {
		processDyn()
	}
	startNowBlocked := false
	if o.opts.StrictSystemPriority {
		for _, j := range ordered {
			if j.SystemPriority > 0 {
				startNowBlocked = true
				break
			}
		}
	}
	final := buildProfile(now, rm.Cluster(), rm.ActiveJobs())
	heldBlocked := 0
	anyBlocked := false
	for _, j := range ordered {
		start := final.FindSlot(j.Cores, j.Walltime, now)
		suppressed := (startNowBlocked && j.SystemPriority == 0) ||
			(anyBlocked && o.opts.Config.BackfillPolicy == "NONE")
		if !suppressed && o.opts.Moldable && j.Class == job.Moldable {
			// moldToFit over the flat profile.
			lo, hi := j.MinCores, j.MaxCores
			if lo <= 0 {
				lo = j.Cores
			}
			if hi < j.Cores {
				hi = j.Cores
			}
			if c := min(final.MinFree(now, holdEnd(now, j.Walltime)), hi); c >= lo && c != j.Cores {
				j.Cores = c
				start = now
			}
		}
		if start == now && !suppressed {
			j.Backfilled = anyBlocked
			alloc, err := rm.StartJob(j)
			if err == nil && alloc != nil {
				if anyBlocked {
					res.Backfilled = append(res.Backfilled, j)
				} else {
					res.Started = append(res.Started, j)
				}
				o.fair.ForgetJob(j.ID)
				final.AddHold(now, holdEnd(now, j.Walltime), j.Cores)
				continue
			}
			j.Backfilled = false
			anyBlocked = true
			continue
		}
		if start > now {
			anyBlocked = true
		}
		if start > now && start < sim.Forever && heldBlocked < o.opts.Config.ReservationDepth {
			heldBlocked++
			final.AddHold(start, holdEnd(start, j.Walltime), j.Cores)
			res.Reservations = append(res.Reservations, Planned{Job: j, Start: start, Held: true})
		}
	}
	if o.opts.DynRequestsAfterBackfill {
		// The scheduler plans these against the table of this
		// iteration, the rows it has just started included.
		processDyn()
	}
	o.grow(now, rm, final, res)
	return res
}

// shadow is a scheduler carrying only the oracle's options and share
// tree, for the victim-selection policies.
func (o *oracleSched) shadow() *Scheduler { return &Scheduler{opts: o.opts, fs: o.fs} }

// grow is growMalleable over the oracle's flat final profile.
func (o *oracleSched) grow(now sim.Time, rm ResourceManager, final *profile.Profile, res *IterationResult) {
	mm, ok := rm.(MalleableManager)
	if !ok || !o.opts.Malleable {
		return
	}
	cl := rm.Cluster()
	var candidates []*job.Job
	for _, j := range rm.ActiveJobs() {
		if j.GrowableBy() > 0 {
			candidates = append(candidates, j)
		}
	}
	SortByPriority(candidates, now, o.opts.Weights, o.fs)
	sort.SliceStable(candidates, func(i, k int) bool { return candidates[i].GrowableBy() > candidates[k].GrowableBy() })
	for _, j := range candidates {
		end := j.StartTime + j.Walltime
		if cl.IdleCores() == 0 {
			return
		}
		if end <= now {
			continue
		}
		want := min(j.GrowableBy(), cl.IdleCores())
		for want > 0 && final.MinFree(now, end) < want {
			want--
		}
		if want <= 0 {
			continue
		}
		if _, err := mm.GrowJob(j, want); err != nil {
			continue
		}
		final.AddHold(now, end, want)
		res.Resizes = append(res.Resizes, Resize{Job: j, Cores: want})
	}
}

func (o *oracleSched) processDyn(now sim.Time, rm ResourceManager, req *job.DynRequest, ordered []*job.Job, res *IterationResult) DynDecision {
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
	if cl.IdleCores() < need && !o.shadow().shrinkMalleable(now, rm, need, res) &&
		!(o.opts.Config.PreemptPolicy == "REQUEUE" && o.shadow().tryPreempt(now, rm, need, res)) {
		dur := req.Job.RemainingWalltime(now)
		if dur <= 0 {
			dur = sim.Second
		}
		dec.AvailableAt = buildProfile(now, cl, rm.ActiveJobs()).FindSlot(need, dur, now)
		if req.Negotiable() && !req.Expired(now) {
			dec.Deferred = true
			return dec
		}
		dec.Reason = fmt.Sprintf("insufficient resources (%d idle, %d needed; estimated available %s)",
			cl.IdleCores(), need, sim.FormatTime(dec.AvailableAt))
		rm.RejectDyn(req, dec.Reason)
		return dec
	}
	evolveEnd := req.Job.StartTime + req.Job.Walltime
	if evolveEnd <= now {
		evolveEnd = now + sim.Second
	}
	baseP := buildProfile(now, cl, rm.ActiveJobs())
	basePlans := planJobs(baseP, ordered, now, o.maxHeld())
	measured, _ := delaySet(basePlans, o.opts.Config.ReservationDelayDepth)
	candP := buildProfile(now, cl, rm.ActiveJobs())
	candP.AddHold(now, evolveEnd, need)
	candPlans := planJobs(candP, ordered, now, o.maxHeld())
	starts := startsByID(candPlans)
	delays := make([]fairness.JobDelay, 0, len(measured))
	for _, p := range measured {
		cand := starts[p.Job.ID]
		d := cand - p.Start
		if cand == sim.Forever || p.Start == sim.Forever {
			d = 0
			if cand == sim.Forever && p.Start < sim.Forever {
				d = evolveEnd - now
			}
		}
		if d < 0 {
			d = 0
		}
		delays = append(delays, fairness.JobDelay{Job: p.Job, Delay: d})
	}
	dec.Delays = delays
	verdict := o.fair.Evaluate(req.Job.Cred, delays)
	if !verdict.Allowed {
		if req.Negotiable() && !req.Expired(now) {
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
	o.fair.Charge(req.Job.Cred, delays)
	dec.Granted = true
	return dec
}

// --- randomized scenario machinery ---

// scnJob is a position-addressed job spec, instantiated once per RM so
// the two sides mutate independent object graphs.
type scnJob struct {
	id          int
	user        string
	cores       int
	minCores    int // moldable and malleable jobs only
	maxCores    int
	wall        sim.Duration
	submit      sim.Time
	sys         int64
	class       job.Class
	running     bool
	preemptible bool
}

func (s scnJob) job() *job.Job {
	return &job.Job{
		ID: job.ID(s.id), Cred: job.Credentials{User: s.user, Group: "g"},
		Cores: s.cores, MinCores: s.minCores, MaxCores: s.maxCores,
		Walltime: s.wall, SubmitTime: s.submit,
		SystemPriority: s.sys, Class: s.class, Preemptible: s.preemptible,
	}
}

type scnDyn struct {
	jobID    int
	cores    int
	deadline sim.Duration // 0 = non-negotiable, else now+deadline
}

type scnStep struct {
	now      sim.Time
	complete []int // job IDs to complete before iterating
	cancel   []int // queued job IDs to take out of the queue (qdel)
	requeue  []int // running job IDs to put back on the queue (node failure)
	failNext []int // job IDs whose next StartJob fails after the dispatch
	submit   []scnJob
	dyn      []scnDyn
	// overflow makes the change log unreadable for this step's first
	// iteration (logged RMs only).
	overflow bool
}

type scenario struct {
	nodes, ppn int
	jobs       []scnJob
	steps      []scnStep
	policy     fairness.Policy
	target     sim.Duration
	single     sim.Duration
	strict     bool
	noBackfill bool
	moldable   bool
	dynAfter   bool
	resDepth   int
	delayDepth int
	// preempt lets dynamic requests requeue backfilled and preemptible
	// jobs; malleable lets them shrink malleable ones (and leftover cores
	// grow them). Both make the scheduler drop its cached plans mid-
	// iteration.
	preempt   bool
	malleable bool
}

func genScenario(rng *rand.Rand) scenario {
	sc := scenario{
		nodes:      4 + rng.Intn(12),
		ppn:        8,
		policy:     fairness.Policy(rng.Intn(4)),
		target:     sim.Duration(1+rng.Intn(240)) * sim.Minute,
		single:     sim.Duration(1+rng.Intn(120)) * sim.Minute,
		strict:     rng.Intn(4) == 0,
		noBackfill: rng.Intn(4) == 0,
		moldable:   rng.Intn(4) == 0,
		dynAfter:   rng.Intn(5) == 0,
		resDepth:   []int{0, 1, 5, rng.Intn(7)}[rng.Intn(4)],
		delayDepth: []int{0, 1, 5, rng.Intn(7)}[rng.Intn(4)],
		preempt:    rng.Intn(4) == 0,
		malleable:  rng.Intn(4) == 0,
	}
	id := 1
	mk := func(running bool) scnJob {
		j := scnJob{
			id:      id,
			user:    fmt.Sprintf("u%d", rng.Intn(6)),
			cores:   1 + rng.Intn(2*sc.ppn),
			wall:    sim.Duration(5+rng.Intn(300)) * sim.Minute,
			submit:  sim.Duration(rng.Intn(600)) * sim.Second,
			running: running,
		}
		if rng.Intn(10) == 0 {
			j.sys = int64(1 + rng.Intn(3))
		}
		switch {
		case running && rng.Intn(2) == 0:
			// Evolving jobs are never preempted: a requeue would strand
			// their requests.
			j.class = job.Evolving
		case running && sc.malleable && rng.Intn(2) == 0:
			j.class = job.Malleable
			j.minCores = 1 + rng.Intn(j.cores)
			j.maxCores = j.cores + rng.Intn(sc.ppn)
		case running:
			j.preemptible = sc.preempt && rng.Intn(2) == 0
		case rng.Intn(5) == 0:
			j.class = job.Moldable
			j.minCores = 1 + rng.Intn(j.cores)
			j.maxCores = j.cores + rng.Intn(sc.ppn)
		case rng.Intn(25) == 0:
			j.cores = 0 // fits anywhere, starts nowhere (Allocate refuses it)
		}
		id++
		return j
	}
	totalCores := sc.nodes * sc.ppn
	used := 0
	for used < totalCores*2/3 {
		j := mk(true)
		if used+j.cores > totalCores {
			break
		}
		used += j.cores
		sc.jobs = append(sc.jobs, j)
	}
	// Most scenarios queue enough for a few changes to be worth patching
	// into the table rather than refilling it.
	queued := 3 + rng.Intn(20)
	switch rng.Intn(4) {
	case 0:
	case 1:
		// Deep enough that both what-if walks prune well before the end.
		queued += 200 + rng.Intn(200)
	default:
		queued += 40 + rng.Intn(80)
	}
	for ; queued > 0; queued-- {
		sc.jobs = append(sc.jobs, mk(false))
	}
	now := sim.Time(10 * sim.Minute)
	for step := 0; step < 12; step++ {
		st := scnStep{now: now, overflow: rng.Intn(6) == 0}
		// Each list names jobs by id whatever their state will be when
		// the step is applied; a job in the wrong state is passed over.
		for _, j := range sc.jobs {
			switch r := rng.Intn(48); {
			case r < 6 && j.running:
				st.complete = append(st.complete, j.id)
			case r < 7:
				st.cancel = append(st.cancel, j.id)
			case r < 8:
				st.requeue = append(st.requeue, j.id)
			case r < 10:
				st.failNext = append(st.failNext, j.id)
			}
		}
		for n := rng.Intn(3); n > 0; n-- {
			j := mk(false)
			j.submit = now
			st.submit = append(st.submit, j)
			sc.jobs = append(sc.jobs, j)
		}
		for _, j := range sc.jobs {
			if j.running && j.class == job.Evolving && rng.Intn(3) == 0 {
				d := scnDyn{jobID: j.id, cores: 1 + rng.Intn(sc.ppn)}
				// A deferred request retries every tick, and one that
				// preempts or shrinks before it defers gives leftover cores
				// back to be started or grown into — at one instant that
				// never settles, so such scenarios negotiate nothing.
				if rng.Intn(3) == 0 && !sc.preempt && !sc.malleable {
					d.deadline = sim.Duration(rng.Intn(40)) * sim.Minute
				}
				st.dyn = append(st.dyn, d)
			}
		}
		sc.steps = append(sc.steps, st)
		now += sim.Duration(1+rng.Intn(45)) * sim.Minute
	}
	return sc
}

func (sc scenario) options() Options {
	cfg := config.Default()
	cfg.ReservationDepth = sc.resDepth
	cfg.ReservationDelayDepth = sc.delayDepth
	if sc.noBackfill {
		cfg.BackfillPolicy = "NONE"
	}
	if sc.preempt {
		cfg.PreemptPolicy = "REQUEUE"
	}
	f := fairness.NewConfig(sc.policy)
	f.Interval = sim.Hour
	for u := 0; u < 6; u++ {
		f.Set(fairness.KindUser, fmt.Sprintf("u%d", u), fairness.Limits{
			PermSet: true, Perm: true,
			TargetDelayTime: sc.target,
			SingleDelayTime: sc.single,
		})
	}
	cfg.Fairness = f
	return Options{
		Config: cfg, StrictSystemPriority: sc.strict,
		Moldable: sc.moldable, DynRequestsAfterBackfill: sc.dynAfter,
		Malleable: sc.malleable,
	}
}

// The RM flavours a scenario runs against: no change tracking at all,
// epochs only, and epochs with the queue change log.
const (
	rmPlain = iota
	rmTracked
	rmLogged
)

// instance is one independent materialization of a scenario.
type instance struct {
	rm   ResourceManager
	jobs map[int]*job.Job
	// track mirrors epoch bumps when the RM is tracked, logged is set
	// when it hands out its change log too.
	track  *trackedRM
	logged *loggedRM
	base   *testRM
}

func (sc scenario) instantiate(flavour int) *instance {
	var in instance
	if flavour == rmPlain {
		in.base = newTestRM(sc.nodes, sc.ppn)
		in.rm = in.base
	} else {
		in.track = &trackedRM{testRM: *newTestRM(sc.nodes, sc.ppn)}
		in.base = &in.track.testRM
		in.rm = in.track
		if flavour == rmLogged {
			in.logged = &loggedRM{trackedRM: in.track}
			in.rm = in.logged
		}
	}
	later := make(map[int]bool) // jobs that enter via steps
	for _, st := range sc.steps {
		for _, sub := range st.submit {
			later[sub.id] = true
		}
	}
	in.jobs = make(map[int]*job.Job)
	for _, s := range sc.jobs {
		if later[s.id] {
			continue
		}
		j := s.job()
		in.jobs[s.id] = j
		if s.running {
			in.base.addRunning(j)
		} else {
			j.State = job.Queued
			in.base.queued = append(in.base.queued, j)
		}
	}
	return &in
}

// bumpQueue and bump record a test-driver mutation on a tracked RM.
func (in *instance) bumpQueue(j *job.Job) {
	if in.track != nil {
		in.track.bumpQueueFor(j)
	}
}

func (in *instance) bump() {
	if in.track != nil {
		in.track.bump()
	}
}

// applyStep mutates the instance and reports whether anything actually
// changed (listed mutations can be no-ops, e.g. completing a job that
// already finished — those must not defeat the skip comparison).
func (in *instance) applyStep(st scnStep) bool {
	mutated := false
	for _, id := range st.complete {
		j := in.jobs[id]
		if j == nil || !j.Active() {
			continue
		}
		mutated = true
		in.base.cl.Release(j.ID)
		in.base.active = without(in.base.active, j)
		j.State = job.Completed
		j.EndTime = st.now
		in.bump()
	}
	for _, id := range st.cancel {
		if j := in.jobs[id]; j != nil && j.State == job.Queued {
			mutated = true
			in.base.queued = without(in.base.queued, j)
			j.State = job.Cancelled
			in.bumpQueue(j)
		}
	}
	for _, id := range st.requeue {
		// Evolving jobs stay: a requeue would strand their requests.
		if j := in.jobs[id]; j != nil && j.State == job.Running && j.Class != job.Evolving {
			mutated = true
			if err := in.rm.Preempt(j); err != nil {
				panic(err)
			}
		}
	}
	for _, id := range st.failNext {
		if j := in.jobs[id]; j != nil && j.State == job.Queued {
			in.base.failStart[j.ID] = true
		}
	}
	for _, s := range st.submit {
		j := s.job()
		j.State = job.Queued
		in.jobs[s.id] = j
		in.base.queued = append(in.base.queued, j)
		mutated = true
		in.bumpQueue(j)
	}
	for _, d := range st.dyn {
		j := in.jobs[d.jobID]
		if j == nil || j.State != job.Running {
			continue
		}
		r := &job.DynRequest{Job: j, Cores: d.cores, IssuedAt: st.now}
		if d.deadline > 0 {
			r.Deadline = st.now + d.deadline
		}
		j.State = job.DynQueued
		in.base.dyn = append(in.base.dyn, r)
		mutated = true
		in.bump()
	}
	if in.logged != nil {
		in.logged.overflow = st.overflow
	}
	return mutated
}

func without(jobs []*job.Job, j *job.Job) []*job.Job {
	for i, q := range jobs {
		if q == j {
			return append(jobs[:i], jobs[i+1:]...)
		}
	}
	return jobs
}

// checkTable requires a kept job table that claims to be current — valid
// and at the RM's queue epoch — to be what a fill from the RM's queue
// gives, column for column.
func checkTable(t *testing.T, step int, s *Scheduler, rm ResourceManager, now sim.Time) {
	t.Helper()
	ct, ok := rm.(ChangeTracker)
	if !ok || !s.table.valid || s.table.queueEpoch != ct.QueueEpoch() {
		return
	}
	var ref jobTable
	ref.fill(rm.QueuedJobs(), now, s.opts.Weights, s.fs)
	got := &s.table
	if !sameIDs(tableIDs(got), tableIDs(&ref)) {
		t.Fatalf("step %d: kept table holds %v, a fill gives %v", step, tableIDs(got), tableIDs(&ref))
	}
	for i := range ref.jobs {
		if got.cores[i] != ref.cores[i] || got.wall[i] != ref.wall[i] || got.sys[i] != ref.sys[i] || got.mold[i] != ref.mold[i] {
			t.Fatalf("step %d: kept table row %d (%v) differs from a fill's", step, i, ref.jobs[i].ID)
		}
	}
	if got.nSys != ref.nSys {
		t.Fatalf("step %d: kept table counts %d system rows (fill: %d)", step, got.nSys, ref.nSys)
	}
	if err := got.checkFit(); err != nil {
		t.Fatalf("step %d: kept table: %v", step, err)
	}
}

func idsOf(jobs []*job.Job) []job.ID {
	out := make([]job.ID, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

func sameIDs(a, b []job.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resizes lists a result's malleable resizes as (job, cores) pairs.
func resizes(res *IterationResult) [][2]int {
	out := make([][2]int, len(res.Resizes))
	for i, r := range res.Resizes {
		out[i] = [2]int{int(r.Job.ID), r.Cores}
	}
	return out
}

func compareResults(t *testing.T, step int, got, want *IterationResult, full bool) {
	t.Helper()
	if !sameIDs(idsOf(got.Started), idsOf(want.Started)) {
		t.Fatalf("step %d: started %v, oracle %v", step, idsOf(got.Started), idsOf(want.Started))
	}
	if !sameIDs(idsOf(got.Backfilled), idsOf(want.Backfilled)) {
		t.Fatalf("step %d: backfilled %v, oracle %v", step, idsOf(got.Backfilled), idsOf(want.Backfilled))
	}
	if !sameIDs(idsOf(got.Preempted), idsOf(want.Preempted)) {
		t.Fatalf("step %d: preempted %v, oracle %v", step, idsOf(got.Preempted), idsOf(want.Preempted))
	}
	if fmt.Sprint(resizes(got)) != fmt.Sprint(resizes(want)) {
		t.Fatalf("step %d: resized %v, oracle %v", step, resizes(got), resizes(want))
	}
	if len(got.DynDecisions) != len(want.DynDecisions) {
		t.Fatalf("step %d: %d dyn decisions, oracle %d", step, len(got.DynDecisions), len(want.DynDecisions))
	}
	for i := range got.DynDecisions {
		g, w := got.DynDecisions[i], want.DynDecisions[i]
		if g.Req.Job.ID != w.Req.Job.ID || g.Granted != w.Granted || g.Deferred != w.Deferred ||
			g.Reason != w.Reason || g.AvailableAt != w.AvailableAt {
			t.Fatalf("step %d: dyn[%d] = {job %v granted %v deferred %v avail %v %q}, oracle {job %v granted %v deferred %v avail %v %q}",
				step, i, g.Req.Job.ID, g.Granted, g.Deferred, g.AvailableAt, g.Reason,
				w.Req.Job.ID, w.Granted, w.Deferred, w.AvailableAt, w.Reason)
		}
		if len(g.Delays) != len(w.Delays) {
			t.Fatalf("step %d: dyn[%d] measured %d delays, oracle %d", step, i, len(g.Delays), len(w.Delays))
		}
		for k := range g.Delays {
			if g.Delays[k].Job.ID != w.Delays[k].Job.ID || g.Delays[k].Delay != w.Delays[k].Delay {
				t.Fatalf("step %d: dyn[%d] delay[%d] = (%v, %v), oracle (%v, %v)",
					step, i, k, g.Delays[k].Job.ID, g.Delays[k].Delay, w.Delays[k].Job.ID, w.Delays[k].Delay)
			}
		}
	}
	if !full {
		return
	}
	if len(got.Reservations) != len(want.Reservations) {
		t.Fatalf("step %d: %d reservations, oracle %d", step, len(got.Reservations), len(want.Reservations))
	}
	for i := range got.Reservations {
		g, w := got.Reservations[i], want.Reservations[i]
		if g.Job.ID != w.Job.ID || g.Start != w.Start {
			t.Fatalf("step %d: reservation[%d] = (%v, %v), oracle (%v, %v)",
				step, i, g.Job.ID, g.Start, w.Job.ID, w.Start)
		}
	}
}

// TestSchedulerDifferential drives the incremental scheduler and the
// full-rebuild oracle through identical randomized job mixes and
// dynamic-request schedules and requires identical decisions — grant,
// reject, defer, start, backfill, reservation, and the measured delay
// vectors behind every fairness verdict. Between iterations the queue
// changes under the scheduler's kept table the way a live one does:
// submissions, cancellations, running jobs thrown back on the queue,
// dispatches that fail after the allocation. All three RM flavours are
// covered: the logged one has the table patched from the change log (and
// refilled when the log cannot be read), the tracked one has it follow
// its own starts and refilled on any other change, the plain one
// refilled every time; with them the event-driven skip. The scenarios vary what the pruned walks depend on: reservation
// and delay depths (0, 1, 5, … each, equal or not), backfill off, strict
// system priority with Z jobs leaving the queue by start and by
// cancellation, moldable rows, rows of no cores, queues deep enough that
// both what-if walks prune, several requests in one iteration (a grant
// hands its plan on to the next request), negotiable requests deferred,
// dynamic requests served after backfill, and requests that preempt or
// shrink running jobs — which throws the cached plans away mid-iteration.
//
// Between mutation steps the schedule interleaves frozen-epoch idle
// ticks against the incremental side only: the tracked RM must
// short-circuit them and the plain RM must replan them to the same
// fixed point, and in neither implementation may an idle tick mutate
// the RM — otherwise the instance silently diverges from the oracle
// and the next step's comparison unmasks it.
func TestSchedulerDifferential(t *testing.T) {
	var repairs, fills [3]uint64
	var skips uint64
	var handedOn, deferred, preempted, shrunk int
	for seed := int64(1); seed <= 25; seed++ {
		for flavour, name := range []string{"tracked-false", "tracked-true", "logged"} {
			seed, flavour := seed, flavour
			t.Run(fmt.Sprintf("seed-%d-%s", seed, name), func(t *testing.T) {
				tracked := flavour != rmPlain
				sc := genScenario(rand.New(rand.NewSource(seed)))
				opts := sc.options()
				inA := sc.instantiate(flavour)
				inB := sc.instantiate(flavour)
				sched := New(opts, 0)
				oracle := newOracle(sc.options()) // independent fairness state
				for i, st := range sc.steps {
					// Stamp the RMs' virtual clock so StartJob records
					// real start times (a live RM does the same); a job
					// started with StartTime 0 would look like a
					// walltime overrun releasing its cores immediately,
					// and same-instant replans would cascade phantom
					// starts instead of reaching a fixed point.
					inA.base.now = st.now
					inB.base.now = st.now
					mutated := inA.applyStep(st)
					inB.applyStep(st)
					resA := sched.Iterate(st.now, inA.rm)
					resB := oracle.iterate(st.now, inB.rm)
					compareResults(t, i, resA, resB, mutated || !tracked)
					for k, d := range resA.DynDecisions {
						if d.Granted && k+1 < len(resA.DynDecisions) {
							handedOn++
						}
						if d.Deferred {
							deferred++
						}
					}
					preempted += len(resA.Preempted)
					for _, r := range resA.Resizes {
						if r.Cores < 0 {
							shrunk++
						}
					}
					checkTable(t, i, sched, inA.rm, st.now)
					// Settle phase: a single pass is deliberately not
					// idempotent (StrictSystemPriority computes its
					// suppression flag before the loop, so the tick that
					// starts the system job still suppresses everyone
					// behind it; deferred dyn decisions can likewise fire
					// a round late; a failed dispatch is retried). Re-iterate
					// both implementations at the same now, still in
					// lockstep with the oracle, until a round changes
					// nothing.
					maxSettle := len(inA.base.queued) + len(inA.base.dyn) + 2
					for round := 0; ; round++ {
						if round >= maxSettle {
							t.Fatalf("step %d: no fixed point after %d settle rounds", i, round)
						}
						nq, na, nd, nf := len(inA.base.queued), len(inA.base.active), len(inA.base.dyn), len(inA.base.failStart)
						sA := sched.Iterate(st.now, inA.rm)
						sB := oracle.iterate(st.now, inB.rm)
						// A settled tracked round may skip, returning a
						// degenerate result with no reservations; compare
						// the decision set only.
						compareResults(t, i, sA, sB, !tracked)
						quiet := len(sA.Started)+len(sA.Backfilled)+sA.GrantedCount()+len(sA.Preempted)+len(sA.Resizes) == 0
						checkTable(t, i, sched, inA.rm, st.now)
						if quiet && len(inA.base.queued) == nq && len(inA.base.active) == na && len(inA.base.dyn) == nd && len(inA.base.failStart) == nf {
							break
						}
					}
					if !sameIDs(idsOf(inA.base.queued), idsOf(inB.base.queued)) {
						t.Fatalf("step %d: queues diverged: %v, oracle %v", i, idsOf(inA.base.queued), idsOf(inB.base.queued))
					}
					for tick := 0; tick < 2; tick++ {
						nq, na, nd := len(inA.base.queued), len(inA.base.active), len(inA.base.dyn)
						var e0, q0 uint64
						if inA.track != nil {
							e0, q0 = inA.track.epoch, inA.track.QueueEpoch()
						}
						idle := sched.Iterate(st.now, inA.rm)
						if len(idle.Started)+len(idle.Backfilled)+idle.GrantedCount() != 0 {
							t.Fatalf("step %d idle tick %d made decisions: %d started, %d backfilled, %d granted",
								i, tick, len(idle.Started), len(idle.Backfilled), idle.GrantedCount())
						}
						if len(inA.base.queued) != nq || len(inA.base.active) != na || len(inA.base.dyn) != nd {
							t.Fatalf("step %d idle tick %d mutated the RM", i, tick)
						}
						if inA.track != nil && (inA.track.epoch != e0 || inA.track.QueueEpoch() != q0) {
							t.Fatalf("step %d idle tick %d bumped epochs %d/%d → %d/%d",
								i, tick, e0, q0, inA.track.epoch, inA.track.QueueEpoch())
						}
					}
				}
				repairs[flavour] += sched.table.repairs
				fills[flavour] += sched.table.fills
				skips += sched.table.whatIfSkips
			})
		}
	}
	// The kept table must have been what was tested: patched from the
	// log where there is one, and refilled less the more the RM tells.
	t.Logf("table fills/repairs: plain %d/%d, tracked %d/%d, logged %d/%d",
		fills[rmPlain], repairs[rmPlain], fills[rmTracked], repairs[rmTracked], fills[rmLogged], repairs[rmLogged])
	if repairs[rmLogged] == 0 || repairs[rmPlain] != 0 || repairs[rmTracked] != 0 {
		t.Errorf("repairs = %v: want the logged RM's table patched and no other", repairs)
	}
	if !(fills[rmLogged] < fills[rmTracked] && fills[rmTracked] < fills[rmPlain]) {
		t.Errorf("fills = %v: want fewer the more the RM reports", fills)
	}
	// And the what-if walks must have pruned, after grants that hand their
	// plan on, beside deferrals, and after preemptions and shrinks that
	// throw it away.
	t.Logf("what-if rows passed over: %d; grants followed by another request: %d; deferred: %d; preempted: %d; shrunk: %d",
		skips, handedOn, deferred, preempted, shrunk)
	if skips == 0 || handedOn == 0 || deferred == 0 || preempted == 0 || shrunk == 0 {
		t.Errorf("the scenarios never pruned a what-if walk, handed a plan on, deferred, preempted or shrank")
	}
}

// TestIterateSkipFrozenState pins the event-driven requeue contract: a
// tracked RM whose epoch does not change yields no-op iterations (and,
// by the differential above, no missed starts), while any mutation —
// or crossing the earliest walltime release — resumes full planning.
func TestIterateSkipFrozenState(t *testing.T) {
	rm := &trackedRM{testRM: *newTestRM(2, 8)}
	run := &job.Job{ID: 1, Cred: job.Credentials{User: "r"}, Cores: 8, Walltime: sim.Hour}
	rm.addRunning(run)
	rm.bump()
	for i := 2; i <= 4; i++ {
		rm.queued = append(rm.queued, mkQueued(i, "u", 16, sim.Hour, sim.Time(i)))
		rm.bumpQueue()
	}
	s := New(Options{}, 0)
	res := s.Iterate(sim.Minute, rm)
	if len(res.Reservations) == 0 {
		t.Fatal("settle iteration should reserve blocked jobs")
	}

	// Frozen state before the release horizon: skipped.
	res = s.Iterate(2*sim.Minute, rm)
	if len(res.Started)+len(res.Backfilled)+len(res.Reservations)+len(res.DynDecisions) != 0 {
		t.Fatal("frozen-state iteration must be a no-op")
	}

	// A queue mutation resumes planning.
	rm.queued = append(rm.queued, mkQueued(5, "u", 16, sim.Hour, 3*sim.Minute))
	rm.bumpQueue()
	res = s.Iterate(3*sim.Minute, rm)
	if len(res.Reservations) == 0 {
		t.Fatal("mutated queue must be replanned")
	}

	// Crossing the release horizon (the running job's walltime end)
	// resumes planning even without an epoch bump: the waiting 16-core
	// jobs must start on the freed cores. Model the completion the way
	// a real RM would (release + epoch bump), then also verify that a
	// time-only horizon crossing replans.
	res = s.Iterate(sim.Hour+sim.Minute, rm)
	if len(res.Reservations) == 0 && len(res.Started) == 0 {
		t.Fatal("horizon crossing must be replanned")
	}
}
