package core

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/fairness"
	"repro/internal/job"
	"repro/internal/sim"
)

// TestIterationResultValidUntilNextIterate pins the result-lifetime
// contract: Iterate returns the scheduler's own result, valid until the
// next Iterate, which hands back the same pointer with every slice
// emptied — after a full iteration and after an idle skip alike — while
// an observer that copied what it keeps still holds its copy.
func TestIterationResultValidUntilNextIterate(t *testing.T) {
	// Fig. 1's shape on eight 1-core nodes: A (evolving) and B run on
	// two each, C needs six and is reserved for B's end at 4 h. A's
	// request for two more cores is granted and delays C to 8 h; D and
	// E take the last two cores.
	setup := func() (*Scheduler, *trackedRM, *job.Job) {
		rm := &trackedRM{testRM: *newTestRM(8, 1)}
		a := &job.Job{ID: 1, Cred: job.Credentials{User: "a"}, Class: job.Evolving, Cores: 2, Walltime: 8 * sim.Hour}
		b := &job.Job{ID: 2, Cred: job.Credentials{User: "b"}, Cores: 2, Walltime: 4 * sim.Hour}
		rm.addRunning(a)
		rm.addRunning(b)
		c := mkQueued(3, "c", 6, 4*sim.Hour, sim.Hour)
		for _, j := range []*job.Job{c, mkQueued(4, "d", 1, sim.Hour, sim.Hour), mkQueued(5, "e", 1, sim.Hour, sim.Hour)} {
			rm.queued = append(rm.queued, j)
			rm.bumpQueueFor(j)
		}
		a.State = job.DynQueued
		rm.dyn = []*job.DynRequest{{Job: a, Cores: 2, IssuedAt: sim.Hour}}
		rm.now = sim.Hour
		rm.bump()
		return schedWithFairness(fairness.None, nil), rm, c
	}

	for _, idle := range []bool{false, true} {
		name := "full"
		if idle {
			name = "idle skip"
		}
		t.Run(name, func(t *testing.T) {
			s, rm, c := setup()
			busy := s.Iterate(sim.Hour, rm)
			if len(busy.Started)+len(busy.Backfilled) != 2 || busy.GrantedCount() != 1 ||
				len(busy.DynDecisions[0].Delays) == 0 || busy.DynDecisions[0].Delays[0].Delay != 4*sim.Hour {
				t.Fatalf("busy iteration: started %d, backfilled %d, decisions %+v; want 2 starts and one grant that delays C by 4h",
					len(busy.Started), len(busy.Backfilled), busy.DynDecisions)
			}
			kept := keepCopy(busy)
			want := kept.String()

			// Every slice the result owns holds something, so a reset
			// that forgets one leaves it non-empty.
			fillEverySlice(busy)
			now := sim.Hour + sim.Second
			if !idle {
				// C is cancelled: the next iteration replans an empty queue.
				rm.queued = without(rm.queued, c)
				rm.bumpQueueFor(c)
			}
			if got := s.canSkip(rm, rm, now); got != idle {
				t.Fatalf("canSkip = %v, want %v", got, idle)
			}
			next := s.Iterate(now, rm)
			if next != busy {
				t.Fatal("Iterate returned a different result: the scheduler owns one")
			}
			if next.Now != now {
				t.Errorf("result Now = %v, want %v", next.Now, now)
			}
			// Every slice is empty, and its spare capacity holds no stale
			// entry that would keep a job alive.
			v := reflect.ValueOf(next).Elem()
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				if f.Kind() != reflect.Slice {
					continue
				}
				if f.Len() != 0 {
					t.Errorf("%s holds %d entries after the next Iterate, want 0", v.Type().Field(i).Name, f.Len())
				}
				for k, all := 0, f.Slice(0, f.Cap()); k < all.Len(); k++ {
					if !all.Index(k).IsZero() {
						t.Errorf("%s keeps a stale entry at %d", v.Type().Field(i).Name, k)
						break
					}
				}
			}
			if got := kept.String(); got != want {
				t.Errorf("observer's copy changed across Iterate:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// fillEverySlice appends an entry to every slice field of res,
// unexported ones included. The entry points somewhere: each element
// type is a pointer or a struct led by one.
func fillEverySlice(res *IterationResult) {
	v := reflect.ValueOf(res).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice {
			continue
		}
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		e := reflect.New(f.Type().Elem()).Elem()
		p := e
		if p.Kind() == reflect.Struct {
			p = p.Field(0)
		}
		p.Set(reflect.New(p.Type().Elem()))
		f.Set(reflect.Append(f, e))
	}
}

// keptResult is what an observer retains of a result, copied as the
// contract asks.
type keptResult struct {
	started []*job.Job
	dyn     []DynDecision
}

func keepCopy(res *IterationResult) keptResult {
	k := keptResult{started: append(append([]*job.Job(nil), res.Started...), res.Backfilled...)}
	for _, d := range res.DynDecisions {
		d.Delays = append([]fairness.JobDelay(nil), d.Delays...)
		k.dyn = append(k.dyn, d)
	}
	return k
}

func (k keptResult) String() string {
	s := fmt.Sprintf("started %v;", idsOf(k.started))
	for _, d := range k.dyn {
		s += fmt.Sprintf(" job %d granted=%v delays", d.Req.Job.ID, d.Granted)
		for _, jd := range d.Delays {
			s += fmt.Sprintf(" %d:%v", jd.Job.ID, jd.Delay)
		}
	}
	return s
}
