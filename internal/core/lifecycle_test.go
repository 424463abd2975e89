package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lcWorld is the state a lifecycle conformance run drives: the
// lifecycle, its jobs by name, the virtual clock, what the bump hook
// has seen, and how many jobs a mirror step has forgotten and not yet
// filed again.
type lcWorld struct {
	l                 Lifecycle
	fs                *Fairshare
	jobs              map[string]*job.Job
	now               sim.Time
	bumps, queueBumps uint64
	forgotten         int
}

func (w *lcWorld) submit(name string, cores int) error {
	j := &job.Job{Name: name, Cred: job.Credentials{User: "u-" + name}, Cores: cores, Walltime: sim.Hour}
	w.jobs[name] = j
	w.l.Submit(j, w.now)
	return nil
}

func (w *lcWorld) start(name string) error {
	_, err := w.l.Start(w.jobs[name], 0, 0, w.now, nil)
	return err
}

func (w *lcWorld) dyn(name string, cores int) error {
	return w.l.QueueDyn(&job.DynRequest{Job: w.jobs[name], Cores: cores, IssuedAt: w.now})
}

// forget and file are the mirror's transitions: the server's next
// record of a job supersedes the one filed, which leaves its lists
// until it is filed again.
func (w *lcWorld) forget(name string) error {
	w.l.Forget(w.jobs[name])
	w.forgotten++
	return nil
}

func (w *lcWorld) file(name string, tail bool) error {
	if !w.l.File(w.jobs[name], tail) {
		return fmt.Errorf("%s has no list to file under", name)
	}
	w.forgotten--
	return nil
}

// fileDyn files a request the server sent for running job name behind
// the pending ones, as the mirror's SetDyn does with the server's
// dynamic queue.
func (w *lcWorld) fileDyn(name string, cores int) error {
	j := w.jobs[name]
	j.State = job.DynQueued
	w.l.SetDyn(append(w.l.DynRequests(), &job.DynRequest{Job: j, Cores: cores, IssuedAt: w.now, Seq: 1 << 20}))
	return nil
}

// failNode takes down the node under name's first slice and applies a
// failure policy to every job there, as both resource managers do: the
// lost cores are stripped, the request size restored, and the job
// cancelled or requeued.
func (w *lcWorld) failNode(name string, requeue bool) error {
	node := w.l.Cluster().AllocOf(w.jobs[name].ID)[0].NodeID
	w.l.Cluster().SetNodeState(node, cluster.Down)
	for _, j := range w.l.JobsOn(node) {
		orig := j.Cores
		if w.l.StripNode(j, node, w.now) == 0 {
			return fmt.Errorf("%s held no cores on node%d", j.Name, node)
		}
		j.Cores = orig
		if requeue {
			if err := w.l.Requeue(j, w.now); err != nil {
				return err
			}
		} else if !w.l.Cancel(j, w.now) {
			return fmt.Errorf("%s not cancelled", j.Name)
		}
	}
	w.l.Bump(nil)
	return nil
}

func (w *lcWorld) repairAll() error {
	for _, n := range w.l.Cluster().Nodes() {
		w.l.Cluster().SetNodeState(n.ID, cluster.Up)
	}
	w.l.Bump(nil)
	return nil
}

// fingerprint renders everything a scheduler can observe of the
// lifecycle, so a step that changes it must have advanced StateEpoch.
func (w *lcWorld) fingerprint() string {
	names := make([]string, 0, len(w.jobs))
	for n := range w.jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		j := w.jobs[n]
		s += fmt.Sprintf("%s:%v:%d+%d:%v ", n, j.State, j.Cores, j.DynCores, w.l.Cluster().AllocOf(j.ID))
	}
	for _, r := range w.l.dyn {
		s += fmt.Sprintf("dyn:%s:%d ", r.Job.Name, r.Seq)
	}
	for _, j := range w.l.QueuedJobs() {
		s += "queued:" + j.Name + " "
	}
	for _, j := range w.l.ActiveJobs() {
		s += "active:" + j.Name + " "
	}
	for _, n := range w.l.Cluster().Nodes() {
		s += fmt.Sprintf("%s:%v ", n.Name, n.State)
	}
	return s
}

// TestLifecycleConformance drives the lifecycle through every
// transition, node failures under both failure policies and the
// mirror's File, Forget and SetDyn included, and checks after each
// step: the cluster's accounting, job conservation,
// the dyn queue's FIFO order with one request per job, an allocation
// exactly where a job is active, and that every change was announced —
// a changed state advanced StateEpoch, every queue-membership change
// advanced QueueEpoch and is named by QueueChanges, and the bump hook
// saw each advance.
func TestLifecycleConformance(t *testing.T) {
	w := &lcWorld{fs: NewFairshare(sim.Hour, 0.5), jobs: map[string]*job.Job{}}
	w.l = NewLifecycle(cluster.New(4, 8), w.fs, metrics.NewRecorder(32))
	w.l.Trace = &trace.Log{}
	w.l.OnBump = func(_ *job.Job, queueMove bool) {
		w.bumps++
		if queueMove {
			w.queueBumps++
		}
	}
	refuse := errors.New("launch refused")
	steps := []struct {
		name    string
		do      func() error
		wantErr bool
	}{
		{"submit a", func() error { return w.submit("a", 8) }, false},
		{"submit b", func() error { return w.submit("b", 16) }, false},
		{"submit c", func() error { return w.submit("c", 8) }, false},
		{"submit d", func() error { return w.submit("d", 4) }, false},
		{"submit e", func() error { return w.submit("e", 64) }, false},
		{"start a", func() error { return w.start("a") }, false},
		{"start b by nodes", func() error {
			_, err := w.l.Start(w.jobs["b"], 2, 8, w.now, nil)
			return err
		}, false},
		{"start c refused by admit", func() error {
			_, err := w.l.Start(w.jobs["c"], 0, 0, w.now, func(cluster.Alloc) error { return refuse })
			return err
		}, true},
		{"start e does not fit", func() error { return w.start("e") }, true},
		{"start a twice", func() error { return w.start("a") }, true},
		{"start c", func() error { return w.start("c") }, false},
		{"unstart c", func() error { w.l.Unstart(w.jobs["c"], w.now); return nil }, false},
		{"dyn a", func() error { return w.dyn("a", 4) }, false},
		{"dyn a again", func() error { return w.dyn("a", 2) }, true},
		{"dyn queued d", func() error { return w.dyn("d", 2) }, true},
		{"dyn b empty", func() error { return w.dyn("b", 0) }, true},
		{"dyn b", func() error { return w.dyn("b", 4) }, false},
		{"grant a", func() error {
			_, err := w.l.Grant(w.l.PendingDyn(w.jobs["a"].ID), w.now)
			return err
		}, false},
		{"reject b", func() error { w.l.Reject(w.l.PendingDyn(w.jobs["b"].ID), "refused", w.now); return nil }, false},
		{"release dyn and base cores of a", func() error {
			held := w.l.Cluster().AllocOf(w.jobs["a"].ID)
			return w.l.Release(w.jobs["a"], cluster.Alloc{{NodeID: held[0].NodeID, Cores: 6}}, w.now)
		}, false},
		{"release cores a does not hold", func() error {
			return w.l.Release(w.jobs["a"], cluster.Alloc{{NodeID: 3, Cores: 99}}, w.now)
		}, true},
		{"grow a", func() error { _, err := w.l.Grow(w.jobs["a"], 2, w.now); return err }, false},
		{"dyn b again", func() error { return w.dyn("b", 8) }, false},
		{"requeue b with its request", func() error { return w.l.Requeue(w.jobs["b"], w.now) }, false},
		{"requeue queued b", func() error { return w.l.Requeue(w.jobs["b"], w.now) }, true},
		{"start d", func() error { return w.start("d") }, false},
		{"mirror forgets queued e", func() error { return w.forget("e") }, false},
		{"mirror files e at the tail", func() error { return w.file("e", true) }, false},
		{"mirror forgets queued e again", func() error { return w.forget("e") }, false},
		{"mirror files e by its key", func() error { return w.file("e", false) }, false},
		{"cancel queued e", func() error { w.l.Cancel(w.jobs["e"], w.now); return nil }, false},
		{"cancel cancelled e", func() error {
			if w.l.Cancel(w.jobs["e"], w.now) {
				return errors.New("cancelled twice")
			}
			return nil
		}, false},
		{"complete a", func() error { w.l.Complete(w.jobs["a"], w.now); return nil }, false},
		{"dyn d", func() error { return w.dyn("d", 2) }, false},
		{"fail d's node, cancel", func() error { return w.failNode("d", false) }, false},
		{"repair", w.repairAll, false},
		{"start b", func() error { return w.start("b") }, false},
		{"start c again", func() error { return w.start("c") }, false},
		{"dyn c", func() error { return w.dyn("c", 4) }, false},
		{"fail c's node, requeue", func() error { return w.failNode("c", true) }, false},
		{"repair again", w.repairAll, false},
		{"start c once more", func() error { return w.start("c") }, false},
		{"mirror forgets running b", func() error { return w.forget("b") }, false},
		{"mirror files b", func() error { return w.file("b", false) }, false},
		{"mirror files a request of b", func() error { return w.fileDyn("b", 2) }, false},
		{"complete b", func() error { w.l.Complete(w.jobs["b"], w.now); return nil }, false},
		{"cancel running c", func() error { w.l.Cancel(w.jobs["c"], w.now); return nil }, false},
		{"complete cancelled c", func() error {
			if w.l.Complete(w.jobs["c"], w.now) {
				return errors.New("completed a cancelled job")
			}
			return nil
		}, false},
	}
	for _, st := range steps {
		w.now += sim.Minute
		queuedBefore := map[*job.Job]bool{}
		for _, j := range w.l.QueuedJobs() {
			queuedBefore[j] = true
		}
		forgotten0 := w.forgotten
		e0, q0, b0, qb0, fp0 := w.l.StateEpoch(), w.l.QueueEpoch(), w.bumps, w.queueBumps, w.fingerprint()
		n0 := w.l.Trace.Len()

		err := st.do()
		if (err != nil) != st.wantErr {
			t.Fatalf("%s: error %v, want error %v", st.name, err, st.wantErr)
		}
		if err != nil && w.l.Trace.Len() != n0 {
			t.Fatalf("%s: failed, yet recorded %v", st.name, w.l.Trace.Events()[n0:])
		}

		if err := w.l.Cluster().CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		queued, active := w.l.QueuedJobs(), w.l.ActiveJobs()
		if n := len(queued) + len(active) + w.l.Completed() + w.l.Cancelled() + w.forgotten; n != w.l.Submitted() {
			t.Fatalf("%s: %d queued + %d active + %d completed + %d cancelled + %d forgotten != %d submitted",
				st.name, len(queued), len(active), w.l.Completed(), w.l.Cancelled(), w.forgotten, w.l.Submitted())
		}
		queuedNow := map[*job.Job]bool{}
		for _, j := range queued {
			queuedNow[j] = true
		}
		for _, j := range w.jobs {
			if held := w.l.Cluster().AllocOf(j.ID).TotalCores(); j.Active() && held != j.TotalCores() || !j.Active() && held != 0 {
				t.Fatalf("%s: %s (%v, %d cores) holds %d", st.name, j.Name, j.State, j.TotalCores(), held)
			}
			if w.forgotten == forgotten0 && (j.State == job.Queued) != queuedNow[j] {
				t.Fatalf("%s: %s is %v, in the queue %v", st.name, j.Name, j.State, queuedNow[j])
			}
			if (j.State == job.DynQueued) != (w.l.PendingDyn(j.ID) != nil) {
				t.Fatalf("%s: %s is %v with pending request %v", st.name, j.Name, j.State, w.l.PendingDyn(j.ID))
			}
		}
		pending := map[job.ID]bool{}
		for i, r := range w.l.dyn {
			if pending[r.Job.ID] {
				t.Fatalf("%s: %s has two pending requests", st.name, r.Job.Name)
			}
			pending[r.Job.ID] = true
			if i > 0 && r.Seq <= w.l.dyn[i-1].Seq {
				t.Fatalf("%s: dyn queue out of FIFO order at %d", st.name, i)
			}
		}

		if w.fingerprint() != fp0 && w.l.StateEpoch() == e0 {
			t.Fatalf("%s: state changed behind an unchanged StateEpoch", st.name)
		}
		if w.l.StateEpoch()-e0 != w.bumps-b0 || w.l.QueueEpoch()-q0 != w.queueBumps-qb0 {
			t.Fatalf("%s: epochs advanced %d/%d, the hook saw %d/%d", st.name,
				w.l.StateEpoch()-e0, w.l.QueueEpoch()-q0, w.bumps-b0, w.queueBumps-qb0)
		}
		changed, ok := w.l.QueueChanges(q0)
		if !ok {
			t.Fatalf("%s: queue log lost epochs since %d", st.name, q0)
		}
		named := map[*job.Job]bool{}
		for _, j := range changed {
			named[j] = true
		}
		for _, j := range w.jobs {
			if queuedBefore[j] != queuedNow[j] && !named[j] {
				t.Fatalf("%s: %s's queue membership changed unlogged (queue epoch %d → %d)",
					st.name, j.Name, q0, w.l.QueueEpoch())
			}
		}
	}
	if w.l.Completed() != 2 || w.l.Cancelled() != 3 || len(w.l.QueuedJobs())+len(w.l.ActiveJobs()) != 0 {
		t.Errorf("ended with %d completed, %d cancelled, %d live", w.l.Completed(), w.l.Cancelled(),
			len(w.l.QueuedJobs())+len(w.l.ActiveJobs()))
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if w.fs.Usage("u-"+name) <= 0 {
			t.Errorf("%s ran and was never charged", name)
		}
	}
	if recs := w.l.Recorder().Jobs(); len(recs) != 2 || !recs[0].DynGranted || recs[1].DynGranted {
		t.Errorf("records = %+v, want a (granted) and b", recs)
	}
	// Every transition performed was recorded once: a stripped node's
	// cores are not a release, and the two node failures are the RM's
	// to record.
	kinds := map[trace.Kind]int{}
	for _, e := range w.l.Trace.Events() {
		kinds[e.Kind]++
	}
	want := map[trace.Kind]int{
		trace.Submit: 5, trace.Start: 7, trace.Preempt: 3, trace.DynRequest: 5, trace.DynGrant: 1,
		trace.DynReject: 1, trace.DynFree: 1, trace.Grow: 1, trace.Cancel: 3, trace.Complete: 2,
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("recorded kinds %v, want %v", kinds, want)
	}
}
