package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/proto"
	"repro/internal/tm"
)

const (
	dynMoms    = 32
	dynBacklog = 10000
	dynUsers   = 100
	// Users of the laid-out jobs: userA owns evolving app A and the
	// first victim, so A's grants only delay its own user's job and
	// pass the gate; userB owns app B, whose every request would push a
	// limited foreign victim; victim2's user carries the second limit.
	dynUserA   = "u000"
	dynUserB   = "u001"
	dynVictim2 = "u002"
)

// dynConfig is the scheduler configuration of dyn_fair in the paper's
// Fig. 6 format: the combined policy, delay depth 5, one USERCFG per
// user and a 10×10 share tree homing each user under org.team, so that
// fairness.Evaluate walks credential keys and tree ancestors.
func dynConfig() (*config.SchedConfig, error) {
	var b strings.Builder
	b.WriteString("DFSPOLICY DFSSINGLEANDTARGETDELAY\nDFSINTERVAL 01:00:00\nDFSDECAY 0.5\n")
	b.WriteString("RESERVATIONDEPTH 5\nRESERVATIONDELAYDEPTH 5\n")
	for u := 0; u < dynUsers; u++ {
		user := fmt.Sprintf("u%03d", u)
		limit := "DFSDYNDELAYPERM=1"
		if user == dynUserA || user == dynVictim2 {
			// One second: far below the hour-scale delay a grant causes.
			limit = "DFSDYNDELAYPERM=1 DFSSINGLEDELAYTIME=1"
		}
		fmt.Fprintf(&b, "USERCFG[%s] %s\n", user, limit)
		fmt.Fprintf(&b, "FSTREE[org%d.team%d] USERS=%s\n", u/10, u%10, user)
	}
	return config.Parse(b.String())
}

func dynDef() *workloadDef {
	return &workloadDef{
		name: "dyn_fair",
		shape: func(rc *runCtx) shape {
			return shape{moms: rc.n(dynMoms, 8), cores: 8, depth: rc.n(dynBacklog, 50), users: dynUsers, hosts: 2, config: dynConfig}
		},
		setup: setupDyn,
	}
}

// dynVerdict is one tm_dynget as the application saw it.
type dynVerdict struct {
	start, end time.Time
	granted    bool
	policy     bool // rejected by the fairness gate (not for lack of cores)
	err        error
	freeEnd    time.Time // end of the tm_dynfree that followed a grant
}

// dynApp is one evolving application: once begun it asks for a node,
// gives it back if granted, and asks again until told to stop. It then
// keeps its job alive until the instance closes, so the cluster stays
// as laid out while the window's end state is checked.
type dynApp struct {
	entered  chan struct{}
	verdicts []dynVerdict  // written by the app, read after done
	done     chan struct{} // closed when the app has stopped asking
}

type dynFair struct {
	rc    *runCtx
	st    *liveStack
	moms  int
	a, b  *dynApp
	begin chan struct{} // closed to start the window
	stop  chan struct{} // closed to end the window
	quit  chan struct{} // closed to let the laid-out jobs finish
	once  sync.Once
}

func (w *dynFair) runApp(app *dynApp) func(context.Context, *tm.Context) error {
	return func(ctx context.Context, tmc *tm.Context) error {
		close(app.entered)
		select {
		case <-w.begin:
		case <-ctx.Done():
			close(app.done)
			return nil
		}
		for {
			select {
			case <-w.stop:
				close(app.done)
				select {
				case <-w.quit:
				case <-ctx.Done():
				}
				return nil
			case <-ctx.Done():
				close(app.done)
				return nil
			default:
			}
			v := dynVerdict{start: time.Now()}
			hosts, err := tmc.DynGetNodes(1, 8)
			v.end = time.Now()
			switch {
			case err == nil:
				v.granted = true
				v.err = tmc.DynFree(hosts)
				v.freeEnd = time.Now()
			case tm.IsRejected(err):
				v.policy = strings.Contains(err.Error(), "single-job delay limit")
			default:
				v.err = err
			}
			app.verdicts = append(app.verdicts, v)
		}
	}
}

// setupDyn boots the cluster and lays the queue out so that every
// request of either app, whatever the other holds at that moment,
// would push a reserved job of a limited user:
//
//	A, B      one node each, walltimes 2 h and 3 h
//	filler    every node but four, 1 h — two nodes stay idle
//	victim 1  userA, exactly the cores free when the filler ends: any
//	          8-core hold across that instant pushes it by an hour
//	victim 2  a limited foreign user, sized to fit beside A's hold but
//	          not beside A's and B's: it is what B pushes while A holds
//	backlog   10 000 rigid jobs too wide for the idle nodes
//
// A's grants delay only victim 1 — its own user, exempt — so A is
// always granted; B always trips a single-delay limit. The limits are
// stateless (nothing B asks for is ever charged), so the mix holds for
// the whole run.
func setupDyn(rc *runCtx) (instance, error) {
	cfg, err := dynConfig()
	if err != nil {
		return nil, err
	}
	moms := rc.n(dynMoms, 8)
	st, err := bootStack(stackOpts{moms: moms, cores: 8, cfg: cfg})
	if err != nil {
		return nil, err
	}
	w := &dynFair{rc: rc, st: st, moms: moms, begin: make(chan struct{}), stop: make(chan struct{}), quit: make(chan struct{})}
	newApp := func() *dynApp { return &dynApp{entered: make(chan struct{}), done: make(chan struct{})} }
	w.a, w.b = newApp(), newApp()
	fillerIn := make(chan struct{})
	filler := st.apps.register(func(ctx context.Context, _ *tm.Context) error {
		close(fillerIn)
		select {
		case <-w.quit:
		case <-ctx.Done():
		}
		return nil
	})
	free := (moms - 2) * 8 // cores free once the filler ends
	jobs := []proto.JobSpec{
		{Name: "evolve-a", User: dynUserA, Nodes: 1, PPN: 8, WallSecs: 2 * 3600, Script: st.apps.register(w.runApp(w.a)), Evolving: true},
		{Name: "evolve-b", User: dynUserB, Nodes: 1, PPN: 8, WallSecs: 3 * 3600, Script: st.apps.register(w.runApp(w.b)), Evolving: true},
		{Name: "filler", User: "u003", Nodes: moms - 4, PPN: 8, WallSecs: 3600, Script: filler},
	}
	for _, spec := range jobs {
		if _, err := st.srv.QSub(spec); err != nil {
			w.close()
			return nil, err
		}
	}
	for _, ch := range []chan struct{}{w.a.entered, w.b.entered, fillerIn} {
		select {
		case <-ch:
		case <-time.After(30 * time.Second):
			w.close()
			return nil, fmt.Errorf("dyn_fair: laid-out jobs did not start")
		}
	}
	idle := st.apps.register(func(context.Context, *tm.Context) error { return nil })
	victims := []proto.JobSpec{
		{Name: "victim1", User: dynUserA, Cores: free, WallSecs: 3600, Script: idle},
		{Name: "victim2", User: dynVictim2, Cores: free - 12, WallSecs: 1800, Script: idle},
	}
	backlog := genSpecs(rand.New(rand.NewSource(rc.seed)), rc.n(dynBacklog, 50), dynUsers, 17, min(64, free), idle)
	for _, spec := range append(victims, backlog...) {
		if _, err := st.srv.QSub(spec); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *dynFair) measure(budget time.Duration) roundResult {
	rr := roundResult{counters: map[string]float64{}}
	endProbe := probeLock(w.rc, w.st, rr.counters)
	t0 := time.Now()
	win := newWindow(t0, budget)
	close(w.begin)
	for i := 0; i <= win.n; i++ {
		sleepUntil(t0.Add(time.Duration(i) * win.each))
		win.markUpTo(time.Now())
	}
	close(w.stop)
	endProbe()
	for _, app := range []*dynApp{w.a, w.b} {
		select {
		case <-app.done:
		case <-time.After(30 * time.Second):
			rr.problems = append(rr.problems, "dyn_fair: an evolving app did not stop")
			return rr
		}
	}
	rr.elapsed = time.Since(t0)

	grants, rejects := 0, 0
	tally := func(app *dynApp, wantGrant bool, who string) [][]float64 {
		waits := make([][]float64, win.n-win.warm)
		for _, v := range app.verdicts {
			rr.attempted++
			if v.err != nil {
				rr.failed++
				continue
			}
			if v.granted {
				grants++
			} else {
				rejects++
			}
			if v.granted != wantGrant || (!v.granted && !v.policy) {
				rr.problems = append(rr.problems, fmt.Sprintf(
					"dyn_fair: app %s got granted=%v policy=%v, laid out for granted=%v", who, v.granted, v.policy, wantGrant))
				continue
			}
			rr.ops++
			w.rc.tr.add(0, rr.attempted, "tm", "dynget", v.start, v.end)
			if v.granted {
				w.rc.tr.add(0, rr.attempted, "tm", "dynfree", v.end, v.freeEnd)
			}
			if i := win.index(v.start); i >= 0 {
				waits[i] = append(waits[i], ms(v.end.Sub(v.start)))
			}
		}
		return waits
	}
	// B never pauses to free anything, so it asks more often than A.
	// Each slice's wait percentiles are taken over the mix as laid out
	// — one reject per grant — not over whatever ratio the two loops'
	// speeds produced; its rate counts every verdict.
	a, b := tally(w.a, true, "A"), tally(w.b, false, "B")
	all := make([][]float64, len(a))
	for i := range a {
		all[i] = append(append([]float64(nil), a[i]...), b[i]...)
	}
	rr.slices = win.slices(all)
	for i := range rr.slices {
		rr.slices[i].waits = balance(a[i], b[i])
		rr.waits = append(rr.waits, rr.slices[i].waits...)
	}
	if len(rr.problems) > 5 {
		rr.problems = append(rr.problems[:5], fmt.Sprintf("dyn_fair: … and %d more verdict mismatches", len(rr.problems)-5))
	}
	if grants == 0 || rejects == 0 {
		rr.problems = append(rr.problems, fmt.Sprintf("dyn_fair: %d grants and %d policy rejects; the layout needs both", grants, rejects))
	}
	rr.counters["core.grants"] = float64(grants)
	rr.counters["core.grant_attempts"] = float64(grants + rejects)

	// Conservation: A gave every grant back and nothing else moved, so
	// exactly the two idle nodes are free again — once the server has
	// applied the last tm_dynfree, which the mom acknowledges first.
	want, used := (w.moms-2)*8, 0
	if err := waitFor("the last dynfree", 10*time.Second, func() bool {
		used = 0
		for _, n := range w.st.srv.QStat().Nodes {
			used += n.Used
		}
		return used == want
	}); err != nil {
		rr.problems = append(rr.problems, fmt.Sprintf("dyn_fair: %d cores in use after the window, want %d", used, want))
	}
	w.st.nativeCounts(&rr)
	return rr
}

// balance pools two sample sets at equal weight: the larger is
// thinned to the size of the smaller by taking evenly spaced order
// statistics, which keeps its distribution.
func balance(a, b []float64) []float64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := append([]float64(nil), a...)
	if len(a) == 0 {
		return append(out, b...)
	}
	sort.Float64s(b)
	for i := range a {
		out = append(out, b[(2*i+1)*len(b)/(2*len(a))])
	}
	return out
}

func (w *dynFair) close() {
	w.once.Do(func() { close(w.quit) })
	w.st.close()
}
