package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/tm"
)

// Full-size inputs of the two drains. The issue sized drain_deep at
// 100 000 jobs and drain_mauid at 25 000 for 15–20 s windows; the
// benchmark contract leaves ~25 s per run including set-up, so both
// are shrunk to rounds of three to four seconds and a run reports the
// median of several rounds.
const (
	drainDeepJobs  = 30000
	drainMauidJobs = 8000
	drainMoms      = 64
	drainCores     = 8
	drainUsers     = 100
)

func drainDef(name string, fullJobs int, external bool) *workloadDef {
	return &workloadDef{
		name: name,
		shape: func(rc *runCtx) shape {
			return shape{moms: rc.n(drainMoms, 2), cores: drainCores, depth: rc.n(fullJobs, 50), users: drainUsers, hosts: 2, config: defaultConfig}
		},
		setup: func(rc *runCtx) (instance, error) {
			return setupDrain(rc, rc.n(fullJobs, 50), rc.n(drainMoms, 2), external)
		},
	}
}

// drain is a gated batch drain: a gate job holds every core while n
// rigid no-op jobs queue up, then the gate opens and the clock runs
// until the last of them has started (a no-op job's start is also its
// completion on the mom).
type drain struct {
	rc    *runCtx
	st    *liveStack
	n     int
	log   *jobLog
	gate  chan struct{}
	calls []callSpan // in-process QSub calls of the preload (traced runs)

	// loop is the driver-owned mauid iteration loop of a traced
	// drain_mauid run; stopLoop ends it and waits for it.
	stopLoop func()
	mauid    *mauidCounts
}

type callSpan struct{ start, end time.Time }

// mauidCounts is what the driver-owned mauid loop tallies.
type mauidCounts struct {
	mu      sync.Mutex
	cycles  int // guarded by mu
	applied int // guarded by mu
	skipped int // guarded by mu
}

func setupDrain(rc *runCtx, n, moms int, external bool) (instance, error) {
	st, err := bootStack(stackOpts{moms: moms, cores: drainCores, external: external})
	if err != nil {
		return nil, err
	}
	d := &drain{rc: rc, st: st, n: n, gate: make(chan struct{})}
	if external {
		if rc.tr != nil {
			d.startMauidLoop()
		} else {
			st.daemon.Start()
			st.daemonStarted = true
		}
	}
	// Job ids are dense from 1: the gate is job 1, the load 2..n+1.
	d.log = newJobLog(time.Now(), n+1, n)
	gateIn := make(chan struct{})
	gateScript := st.apps.register(func(ctx context.Context, _ *tm.Context) error {
		close(gateIn)
		select {
		case <-d.gate:
		case <-ctx.Done():
		}
		return nil
	})
	if _, err := st.srv.QSub(proto.JobSpec{
		Name: "gate", User: "gate", Nodes: moms, PPN: drainCores, WallSecs: 3600, Script: gateScript,
	}); err != nil {
		d.close()
		return nil, err
	}
	select {
	case <-gateIn:
	case <-time.After(30 * time.Second):
		d.close()
		return nil, fmt.Errorf("gate job did not start")
	}
	specs := genSpecs(rand.New(rand.NewSource(rc.seed)), n, drainUsers, 1, drainCores, st.apps.register(d.log.app()))
	for _, spec := range specs {
		t0 := time.Now()
		if _, err := st.srv.QSub(spec); err != nil {
			d.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		if rc.tr != nil {
			d.calls = append(d.calls, callSpan{t0, time.Now()})
		}
	}
	return d, nil
}

// startMauidLoop drives the external scheduler from the driver, in the
// shape of mauid.Daemon.Start's own loop (poll every interval; iterate
// again at once while a commit made progress), so that every RunOnce
// can carry a span and be counted.
func (d *drain) startMauidLoop() {
	d.mauid = &mauidCounts{}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTimer(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			for {
				t0 := time.Now()
				applied, skipped, err := d.st.daemon.RunOnce()
				t1 := time.Now()
				d.rc.tr.add(0, 0, "mauid", "runonce", t0, t1)
				d.mauid.mu.Lock()
				d.mauid.cycles++
				d.mauid.applied += applied
				d.mauid.skipped += skipped
				d.mauid.mu.Unlock()
				if err != nil || applied == 0 {
					break
				}
				select {
				case <-stop:
					return
				default:
				}
			}
			t.Reset(time.Millisecond)
		}
	}()
	d.stopLoop = func() {
		close(stop)
		<-done
	}
}

func (d *drain) measure(time.Duration) roundResult {
	rr := roundResult{counters: map[string]float64{}}
	endProbe := probeLock(d.rc, d.st, rr.counters)
	release := time.Now()
	close(d.gate)
	select {
	case <-d.log.done:
	case <-time.After(60 * time.Second):
		rr.problems = append(rr.problems, fmt.Sprintf("drain: only %d of %d jobs started before the deadline", d.log.started.Load(), d.n))
	}
	endProbe()
	starts := make([]time.Time, 0, d.n)
	for id := 2; id <= d.n+1; id++ {
		if at, ok := d.log.at(id); ok {
			starts = append(starts, at)
		}
	}
	sort.Slice(starts, func(i, k int) bool { return starts[i].Before(starts[k]) })
	rr.ops = len(starts)
	rr.attempted = d.n
	rr.failed = d.n - len(starts)
	if len(starts) > 0 {
		rr.elapsed = starts[len(starts)-1].Sub(release)
	}
	// A drained job's wait is the classic batch figure: how long it
	// sat in the queue once the machine was free, release to start.
	rr.waits = make([]float64, len(starts))
	for i, at := range starts {
		rr.waits[i] = ms(at.Sub(release))
	}

	// Correctness: every job ran once and completed, every core is
	// free again, and no liveness beacon overflowed its ring.
	qs, _, err := d.st.waitIdle(30 * time.Second)
	if err != nil {
		rr.problems = append(rr.problems, "drain: "+err.Error())
	}
	completed := 0
	for _, j := range qs.Jobs {
		if j.State == "completed" {
			completed++
		}
	}
	recorded := len(d.st.srv.Recorder().Jobs())
	if len(qs.Jobs) != d.n+1 || completed != d.n+1 || recorded != d.n+1 || len(starts) != d.n {
		rr.problems = append(rr.problems, fmt.Sprintf(
			"drain: jobs not conserved: submitted %d, known %d, app starts %d (+1 gate), completed %d, recorded %d",
			d.n+1, len(qs.Jobs), len(starts), completed, recorded))
	}
	d.st.nativeCounts(&rr)
	if d.mauid != nil {
		d.mauid.mu.Lock()
		rr.counters["mauid.cycles"] = float64(d.mauid.cycles)
		rr.counters["mauid.applied"] = float64(d.mauid.applied)
		rr.counters["mauid.skipped"] = float64(d.mauid.skipped)
		d.mauid.mu.Unlock()
	}
	d.traceJobs(release)
	return rr
}

// traceJobs writes one root span per job — queued at the server from
// the end of its QSub call until its application ran — with the QSub
// call as a child. From outside, the server, the scheduler and the mom
// launch cannot be told apart inside that interval; the layer runs
// split it.
func (d *drain) traceJobs(release time.Time) {
	if d.rc.tr == nil {
		return
	}
	for i, c := range d.calls {
		id := i + 2
		at, ok := d.log.at(id)
		if !ok {
			continue
		}
		root := d.rc.tr.add(0, id, "bench", "job", c.start, at)
		d.rc.tr.add(root, id, "serverd", "qsub_call", c.start, c.end)
		d.rc.tr.add(root, id, "bench", "gated", c.end, release)
		d.rc.tr.add(root, id, "serverd", "queue_to_start", release, at)
	}
}

func (d *drain) close() {
	select {
	case <-d.gate:
	default:
		close(d.gate)
	}
	if d.stopLoop != nil {
		d.stopLoop()
	}
	d.st.close()
}
