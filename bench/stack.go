package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mauid"
	"repro/internal/metrics"
	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/serverd"
	"repro/internal/tm"
)

// heartbeat is the liveness interval of every live stack the driver
// boots, so the server's monitor path (beacon ring, sweep under the
// server lock) is live during measurement as it is in production.
const heartbeat = 500 * time.Millisecond

// shape is the size of a workload's state, which the layer runs and
// probes rebuild to time each layer in isolation at that size.
type shape struct {
	moms, cores int // cluster: moms × cores per mom
	depth       int // queued jobs the scheduler sees
	users       int // distinct submitting users
	hosts       int // moms a typical wide allocation spans (host-list size)
	// config builds the workload's scheduler configuration (policy,
	// per-user limits, share tree, delay depth).
	config func() (*config.SchedConfig, error)
}

// defaultConfig is the scheduler configuration of the workloads that
// run the server's defaults.
func defaultConfig() (*config.SchedConfig, error) { return config.Default(), nil }

// liveStack is the real system booted in-process: one serverd, its
// scheduler (embedded, or an external mauid daemon), and real moms on
// loopback TCP.
type liveStack struct {
	srv    *serverd.Server
	sched  *core.Scheduler // the planning core, whichever daemon owns it
	daemon *mauid.Daemon   // nil with the embedded scheduler
	moms   []*mom.Mom
	apps   appSet
	// daemonStarted records that daemon.Start ran: Daemon.Close waits
	// for Start's goroutine, so it must not be called when the driver
	// ran RunOnce itself.
	daemonStarted bool
}

type stackOpts struct {
	moms, cores int
	cfg         *config.SchedConfig // nil = config.Default()
	// external boots the server without an embedded scheduler and
	// builds a mauid daemon around the planning core instead. The
	// caller starts it (Daemon.Start, or its own RunOnce loop).
	external bool
}

// bootStack starts the server and the moms and returns once every mom
// is registered, so a workload never measures registration.
func bootStack(o stackOpts) (*liveStack, error) {
	st := &liveStack{sched: core.New(core.Options{Config: o.cfg}, 0)}
	sopts := serverd.Options{HeartbeatInterval: heartbeat}
	if !o.external {
		sopts.Sched = st.sched
	}
	st.srv = serverd.New(sopts)
	if err := st.srv.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	if o.external {
		st.daemon = mauid.New(st.srv.Addr(), st.sched, time.Millisecond)
	}
	for i := 0; i < o.moms; i++ {
		m := mom.New(fmt.Sprintf("n%04d", i), o.cores)
		m.HeartbeatInterval = heartbeat
		if err := m.Start("127.0.0.1:0", st.srv.Addr()); err != nil {
			st.close()
			return nil, fmt.Errorf("start mom %d: %w", i, err)
		}
		st.moms = append(st.moms, m)
	}
	// Registration is asynchronous on the server side. The poll is
	// fine-grained (and kernel-timed, see sleepUntil) because a boot
	// takes a few milliseconds and is itself measured as set-up.
	deadline := time.Now().Add(30 * time.Second)
	for len(st.srv.QStat().Nodes) < o.moms {
		if time.Now().After(deadline) {
			st.close()
			return nil, fmt.Errorf("only %d of %d moms registered", len(st.srv.QStat().Nodes), o.moms)
		}
		sleepUntil(time.Now().Add(100 * time.Microsecond))
	}
	return st, nil
}

func (st *liveStack) close() {
	if st.daemonStarted {
		st.daemon.Close()
	}
	for _, m := range st.moms {
		m.Close()
	}
	st.srv.Close()
	st.apps.release()
}

// waitIdle polls QStat until no job is queued or running and every
// node is free, which is when the server stops mutating its recorder.
// It returns the final QStat and how long that call took.
func (st *liveStack) waitIdle(timeout time.Duration) (proto.QStatResp, time.Duration, error) {
	deadline := time.Now().Add(timeout)
	for {
		t0 := time.Now()
		qs := st.srv.QStat()
		took := time.Since(t0)
		busy := 0
		for _, j := range qs.Jobs {
			if j.State != "completed" && j.State != "cancelled" {
				busy++
			}
		}
		for _, n := range qs.Nodes {
			busy += n.Used
		}
		if busy == 0 {
			return qs, took, nil
		}
		if time.Now().After(deadline) {
			return qs, took, fmt.Errorf("server not idle after %v: %d jobs or cores still busy", timeout, busy)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// nativeCounts ends a live round: no liveness beacon may have
// overflowed its ring, and the round's counters get the server's and
// the scheduler's own counts.
func (st *liveStack) nativeCounts(rr *roundResult) {
	drops := st.srv.BeaconDrops()
	if drops != 0 {
		rr.problems = append(rr.problems, fmt.Sprintf("%d beacon drops", drops))
	}
	rr.counters["serverd.beacon_drops"] = float64(drops)
	rr.counters["core.iterations"] = float64(st.sched.Iterations())
}

// appSeq makes every registered app name unique: mom's registry is
// process-wide, panics on a duplicate and never forgets an entry.
var appSeq atomic.Int64

// appSet registers the applications of one instance. What goes into
// mom's registry is a small forwarding stub; release empties the stubs
// when the instance closes, so the closures — and through them the
// instance's server with all its jobs — can be collected instead of
// piling up round after round and counting into every later round's
// memory peak.
type appSet struct {
	stubs []*atomic.Pointer[mom.GoApp]
}

// register makes fn launchable and returns the job script for it.
func (a *appSet) register(fn mom.GoApp) string {
	stub := new(atomic.Pointer[mom.GoApp])
	stub.Store(&fn)
	a.stubs = append(a.stubs, stub)
	name := fmt.Sprintf("bench-%d", appSeq.Add(1))
	mom.RegisterGoApp(name, func(ctx context.Context, tmc *tm.Context) error {
		if fn := stub.Load(); fn != nil {
			return (*fn)(ctx, tmc)
		}
		return nil
	})
	return "go:" + name
}

func (a *appSet) release() {
	for _, stub := range a.stubs {
		stub.Store(nil)
	}
}

// jobLog records when each job's application function was entered on
// its mom, as nanoseconds since origin, indexed by job id. Each slot
// is written once by the job's own goroutine; readers wait on done
// (or on the started counter) first.
type jobLog struct {
	origin  time.Time
	start   []atomic.Int64
	started atomic.Int64
	want    int64
	done    chan struct{} // closed when want jobs have started
}

func newJobLog(origin time.Time, maxID int, want int) *jobLog {
	return &jobLog{origin: origin, start: make([]atomic.Int64, maxID+1), want: int64(want), done: make(chan struct{})}
}

// app returns the no-op application: it stamps its start and returns,
// which the mom reports as the job's completion.
func (l *jobLog) app() mom.GoApp {
	return func(_ context.Context, tmc *tm.Context) error {
		if tmc.JobID < len(l.start) {
			l.start[tmc.JobID].Store(int64(time.Since(l.origin)))
		}
		if l.started.Add(1) == l.want {
			close(l.done)
		}
		return nil
	}
}

// at returns the start instant of a job, and false if it never ran.
func (l *jobLog) at(id int) (time.Time, bool) {
	ns := l.start[id].Load()
	return l.origin.Add(time.Duration(ns)), ns != 0
}

var wallSecs = []int64{60, 300, 900, 3600, 4 * 3600}

// genSpecs draws n rigid jobs from rng: 1..maxCores cores, one of
// users users, a walltime from a fixed mixed set.
func genSpecs(rng *rand.Rand, n, users, minCores, maxCores int, script string) []proto.JobSpec {
	specs := make([]proto.JobSpec, n)
	for i := range specs {
		specs[i] = proto.JobSpec{
			Name:     "j",
			User:     fmt.Sprintf("u%03d", rng.Intn(users)),
			Cores:    minCores + rng.Intn(maxCores-minCores+1),
			WallSecs: wallSecs[rng.Intn(len(wallSecs))],
			Script:   script,
		}
	}
	return specs
}

// lockProbe samples how long the server's lock makes a caller wait: a
// goroutine calls srv.Recorder() — which takes and drops the server
// mutex and does nothing else — about every millisecond and times it.
// It runs only in traced runs and layer runs, never while an
// end-to-end figure is measured.
type lockProbe struct {
	stop  chan struct{}
	done  chan struct{}
	waits []float64 // µs per probe; written by the probe goroutine, read after done
}

func startLockProbe(st interface{ Recorder() *metrics.Recorder }) *lockProbe {
	p := &lockProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			st.Recorder()
			p.waits = append(p.waits, float64(time.Since(t0))/1e3)
		}
	}()
	return p
}

// finish stops the probe and returns its samples.
func (p *lockProbe) finish() []float64 {
	close(p.stop)
	<-p.done
	return p.waits
}

// probeLock runs a lock probe for the span of a traced workload
// window; the returned function ends it and adds to the round's
// counters how long the probe waited in all and how long the window
// was — their ratio is the share of the window a bystander calling once
// a millisecond spent blocked on the server lock, a lower bound on the
// share the lock was held. Untraced, both are no-ops.
func probeLock(rc *runCtx, st *liveStack, counters map[string]float64) func() {
	if rc.tr == nil {
		return func() {}
	}
	p := startLockProbe(st.srv)
	t0 := time.Now()
	return func() {
		for _, w := range p.finish() {
			counters["serverd.lock_wait_us"] += w
		}
		counters["serverd.lock_window_us"] += float64(time.Since(t0)) / 1e3
	}
}
