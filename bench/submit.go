package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/proto"
)

const (
	submitMoms = 32
	// submitRate is the open-loop offered rate, jobs per second. The
	// issue measured the process 21 % busy at this rate on two cores,
	// so the queue stays empty and the wire and launch path dominate.
	submitRate = 1000.0
	// qstatRate is the rate of the reader that issues TQStat beside
	// the writes, per second. The server keeps finished jobs, so a
	// reply grows with the window; one instance is measured for at most
	// roundCap, which keeps the reply under ~4000 jobs and the reader
	// busy well under a tenth of the time. (Over one 16 s window the
	// reader was busy half the time by the end, the knee of the wait
	// distribution sat at its 90th percentile, and p90 moved 2–5× from
	// run to run.)
	qstatRate = 5.0
	// lateLimit is how late the open-loop generator may send a job
	// before that job counts as late. A late job is not a failed
	// operation — the system did what was asked of it — and stays in the
	// wait figures, timed from its due time like every other, so a stall
	// is not thinned out of the load. A run in which more than one job
	// in ten was late is marked incorrect (see runWorkload): that is a
	// generator that cannot hold the rate, not a stall of the host.
	lateLimit = 50 * time.Millisecond
)

func submitDef() *workloadDef {
	return &workloadDef{
		name: "submit_shallow",
		shape: func(rc *runCtx) shape {
			return shape{moms: rc.n(submitMoms, 2), cores: 8, depth: rc.n(1000, 20), users: 100, hosts: 1, config: defaultConfig}
		},
		setup: func(rc *runCtx) (instance, error) {
			st, err := bootStack(stackOpts{moms: rc.n(submitMoms, 2), cores: 8})
			if err != nil {
				return nil, err
			}
			return &submitShallow{rc: rc, st: st, rate: submitRate * rc.scale}, nil
		},
	}
}

// submitShallow is the open-loop front-door workload: one generator
// submits over the wire on a fixed schedule, timing every job from the
// instant it was due, and one reader polls qstat.
type submitShallow struct {
	rc   *runCtx
	st   *liveStack
	rate float64
}

// submitSample is one open-loop submission.
type submitSample struct {
	due, sent, reply time.Time
	id               int // 0 = the submission failed
}

// wireQSub submits one job as cmd/qsub does: dial, one request, close.
func wireQSub(addr string, spec proto.JobSpec) (int, error) {
	c, err := proto.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	env, err := c.Request(proto.TQSub, spec)
	if err != nil {
		return 0, err
	}
	var resp proto.QSubResp
	if err := env.Decode(&resp); err != nil {
		return 0, err
	}
	if resp.Error != "" {
		return 0, fmt.Errorf("qsub: %s", resp.Error)
	}
	return resp.JobID, nil
}

// wireQStat reads the queue as cmd/qstat does.
func wireQStat(addr string) (proto.QStatResp, error) {
	var resp proto.QStatResp
	c, err := proto.Dial(addr)
	if err != nil {
		return resp, err
	}
	defer c.Close()
	env, err := c.Request(proto.TQStat, nil)
	if err != nil {
		return resp, err
	}
	err = env.Decode(&resp)
	return resp, err
}

// openLoop submits specs to addr at rate per second starting at t0,
// each on its own due time whatever happened to the one before. win,
// when set, is marked at every slice boundary the schedule crosses.
func openLoop(addr string, specs []proto.JobSpec, t0 time.Time, rate float64, win *window) []submitSample {
	period := time.Duration(float64(time.Second) / rate)
	samples := make([]submitSample, len(specs))
	for i, spec := range specs {
		s := &samples[i]
		s.due = t0.Add(time.Duration(i) * period)
		sleepUntil(s.due)
		win.markUpTo(s.due)
		s.sent = time.Now()
		s.id, _ = wireQSub(addr, spec) // a failed submission keeps id 0 and is counted by the caller
		s.reply = time.Now()
	}
	return samples
}

func (w *submitShallow) measure(budget time.Duration) roundResult {
	rr := roundResult{counters: map[string]float64{}}
	n := max(1, int(w.rate*budget.Seconds()))
	log := newJobLog(time.Now(), n, -1)
	specs := genSpecs(rand.New(rand.NewSource(w.rc.seed)), n, 100, 1, 8, w.st.apps.register(log.app()))
	addr := w.st.srv.Addr()

	// The reader: qstat beside the writes. The server keeps finished
	// jobs, so its replies grow through the window.
	stopReader := make(chan struct{})
	var reader sync.WaitGroup
	var reads, readErrs int
	reader.Add(1)
	go func() {
		defer reader.Done()
		tick := time.NewTicker(time.Duration(float64(time.Second) / qstatRate))
		defer tick.Stop()
		for {
			select {
			case <-stopReader:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			_, err := wireQStat(addr)
			reads++
			if err != nil {
				readErrs++
			}
			w.rc.tr.add(0, 0, "proto", "qstat", t0, time.Now())
		}
	}()

	endProbe := probeLock(w.rc, w.st, rr.counters)
	t0 := time.Now().Add(5 * time.Millisecond)
	win := newWindow(t0, budget)
	samples := openLoop(addr, specs, t0, w.rate, win)
	win.markUpTo(win.t0.Add(time.Duration(win.n) * win.each))
	close(stopReader)
	reader.Wait()
	endProbe()

	submitted := 0
	for _, s := range samples {
		if s.id != 0 {
			submitted++
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for log.started.Load() < int64(submitted) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	waits := make([][]float64, win.n-win.warm)
	var lates []float64
	var lastStart time.Time
	for _, s := range samples {
		late := s.sent.Sub(s.due)
		lates = append(lates, ms(late))
		at, started := time.Time{}, false
		if s.id != 0 && s.id < len(log.start) {
			at, started = log.at(s.id)
		}
		if !started {
			rr.failed++
			continue
		}
		if late > lateLimit {
			rr.late++
		}
		rr.ops++
		if at.After(lastStart) {
			lastStart = at
		}
		root := w.rc.tr.add(0, s.id, "bench", "submit", s.due, at)
		w.rc.tr.add(root, s.id, "bench", "generator_late", s.due, s.sent)
		w.rc.tr.add(root, s.id, "proto", "qsub", s.sent, s.reply)
		w.rc.tr.add(root, s.id, "serverd", "reply_to_start", s.reply, at)
		if i := win.index(s.due); i >= 0 {
			waits[i] = append(waits[i], ms(at.Sub(s.due)))
			rr.waits = append(rr.waits, ms(at.Sub(s.due)))
		}
	}
	rr.slices = win.slices(waits)
	// An open loop completes what it offers, so every slice's rate is
	// the window's: jobs started per second up to the last start. It
	// reads below the offered rate only if jobs failed or the system
	// fell behind.
	if span := lastStart.Sub(t0); span > 0 {
		for i := range rr.slices {
			rr.slices[i].rate = float64(rr.ops) / span.Seconds()
		}
	}
	rr.attempted = len(samples) + reads
	rr.failed += readErrs
	rr.lates = lates
	// The window is the schedule's length, or longer if the last job
	// started after it: an open loop completes what it offers, and a
	// run of failures must not read as a higher rate.
	rr.elapsed = max(lastStart.Sub(t0), time.Duration(float64(n)/w.rate*float64(time.Second)))
	qs, _, err := w.st.waitIdle(30 * time.Second)
	if err != nil {
		rr.problems = append(rr.problems, "submit_shallow: "+err.Error())
	}
	recorded := len(w.st.srv.Recorder().Jobs())
	if len(qs.Jobs) != submitted || recorded != submitted || int(log.started.Load()) != submitted {
		rr.problems = append(rr.problems, fmt.Sprintf(
			"submit_shallow: jobs not conserved: submitted %d, known %d, app starts %d, recorded %d",
			submitted, len(qs.Jobs), log.started.Load(), recorded))
	}
	w.st.nativeCounts(&rr)
	return rr
}

func (w *submitShallow) close() { w.st.close() }
