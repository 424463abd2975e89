package mauid

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/job"
	"repro/internal/proto"
	"repro/internal/sim"
)

// mirrorModel is a server as the mirror sees it through sched.pull: a
// queue, running jobs placed on nodes, a FIFO of dynamic requests, and
// the records a delta owes the mirror.
type mirrorModel struct {
	rng    *rand.Rand
	rec    map[int]*proto.SchedJob
	node   map[int]int // the node each running job is on
	queue  []int
	dyn    []proto.SchedDynReq
	nodes  []proto.NodeStatus
	next   int
	dynSeq int
	serial uint64
	nowMS  int64
	// touched and tail name the jobs the next delta reports: tail those
	// appended to the queue since the last pull, touched the rest.
	touched, tail map[int]bool
}

func newMirrorModel(seed int64) *mirrorModel {
	s := &mirrorModel{rng: rand.New(rand.NewSource(seed)), rec: map[int]*proto.SchedJob{}, node: map[int]int{},
		next: 1, serial: 1, nowMS: 1000, touched: map[int]bool{}, tail: map[int]bool{}}
	for i := range 4 {
		s.nodes = append(s.nodes, proto.NodeStatus{Name: fmt.Sprintf("n%d", i), Cores: 64, State: "up"})
	}
	return s
}

func (s *mirrorModel) submit() {
	id := s.next
	s.next++
	s.rec[id] = &proto.SchedJob{ID: id, Name: fmt.Sprintf("j.%d", id), User: fmt.Sprintf("u%d", id%5), Group: "g",
		State: "queued", Cores: 1 + s.rng.Intn(6), WallSecs: 60 + int64(s.rng.Intn(600)), SubmitMS: s.nowMS,
		Evolving: s.rng.Intn(3) == 0}
	s.queue = append(s.queue, id)
	s.tail[id] = true
}

// place puts running job id's cores cores on a node with room, or
// reports that none has it.
func (s *mirrorModel) place(id, cores int) bool {
	for k := range s.nodes {
		n := &s.nodes[(id+k)%len(s.nodes)]
		if n.State == "up" && n.Cores-n.Used >= cores {
			n.Used += cores
			s.node[id] = (id + k) % len(s.nodes)
			return true
		}
	}
	return false
}

// stop takes running job id off its node and drops its request.
func (s *mirrorModel) stop(id int) {
	r := s.rec[id]
	s.nodes[s.node[id]].Used -= r.Cores + r.DynCores
	delete(s.node, id)
	s.dyn = slices.DeleteFunc(s.dyn, func(d proto.SchedDynReq) bool { return d.JobID == id })
}

// commit applies about half of the mirror's actions and skips the rest,
// naming every job of the commit in the next delta, as the server does.
func (s *mirrorModel) commit(actions []proto.SchedAction) {
	for _, a := range actions {
		r, id := s.rec[a.JobID], a.JobID
		s.touched[id] = true
		if r == nil || s.rng.Intn(2) == 0 {
			continue
		}
		i := slices.IndexFunc(s.dyn, func(d proto.SchedDynReq) bool { return d.JobID == id })
		switch a.Kind {
		case "start":
			if r.State == "queued" && s.place(id, r.Cores) {
				r.State, r.StartMS = "running", s.nowMS
				s.queue = slices.DeleteFunc(s.queue, func(q int) bool { return q == id })
			}
		case "grant":
			if r.State == "dynqueued" && i >= 0 && s.nodes[s.node[id]].State == "up" &&
				s.nodes[s.node[id]].Cores-s.nodes[s.node[id]].Used >= s.dyn[i].Cores {
				s.nodes[s.node[id]].Used += s.dyn[i].Cores
				r.DynCores += s.dyn[i].Cores
				r.State = "running"
				s.dyn = slices.Delete(s.dyn, i, i+1)
			}
		case "reject":
			if r.State == "dynqueued" && i >= 0 {
				r.State = "running"
				s.dyn = slices.Delete(s.dyn, i, i+1)
			}
		}
	}
}

// churn is what happens on the server between two pulls: submissions,
// completions, cancellations, requeues, dynamic requests and nodes
// going down and coming back.
func (s *mirrorModel) churn() {
	s.nowMS += 1000
	for range s.rng.Intn(6) {
		s.submit()
	}
	ids := make([]int, 0, len(s.rec))
	for id := range s.rec {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		r := s.rec[id]
		switch x := s.rng.Intn(20); {
		case r.State == "queued" && x == 0:
			r.State = "cancelled"
			s.queue = slices.DeleteFunc(s.queue, func(q int) bool { return q == id })
			delete(s.tail, id)
			s.touched[id] = true
		case r.State == "queued":
		case x < 3:
			s.stop(id)
			r.State = "completed"
			s.touched[id] = true
		case x == 3:
			s.stop(id)
			r.State, r.StartMS, r.DynCores = "queued", 0, 0
			s.queue = append(s.queue, id)
			s.tail[id] = true
		case x < 6 && r.Evolving && r.State == "running":
			r.State = "dynqueued"
			s.dyn = append(s.dyn, proto.SchedDynReq{JobID: id, Cores: 1 + s.rng.Intn(4), Seq: s.dynSeq,
				DeadlineMS: s.nowMS + 5000})
			s.dynSeq++
			s.touched[id] = true
		}
	}
	if s.rng.Intn(4) == 0 {
		n := &s.nodes[s.rng.Intn(len(s.nodes))]
		if n.State == "up" && n.Used == 0 {
			n.State = "down"
		} else if n.State == "down" {
			n.State = "up"
		}
	}
}

// delta is the sched.delta owed since the last pull; it forgets the
// records of jobs that ended.
func (s *mirrorModel) delta() *proto.SchedDelta {
	s.serial++
	d := &proto.SchedDelta{NowMS: s.nowMS, Serial: s.serial, Nodes: slices.Clone(s.nodes), Dyn: slices.Clone(s.dyn)}
	for _, id := range s.queue {
		if s.tail[id] {
			d.Tail = append(d.Tail, *s.rec[id])
		}
	}
	ids := make([]int, 0, len(s.touched))
	for id := range s.touched {
		if !s.tail[id] {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		if r := s.rec[id]; r != nil {
			d.Jobs = append(d.Jobs, *r)
			if r.State == "completed" || r.State == "cancelled" {
				delete(s.rec, id)
			}
		}
	}
	clear(s.touched)
	clear(s.tail)
	return d
}

// snapshot is the full sched.state of the model.
func (s *mirrorModel) snapshot() *proto.SchedState {
	st := &proto.SchedState{NowMS: s.nowMS, Serial: s.serial, Nodes: slices.Clone(s.nodes), Dyn: slices.Clone(s.dyn)}
	for _, id := range s.queue {
		st.Queued = append(st.Queued, *s.rec[id])
	}
	ids := make([]int, 0, len(s.node))
	for id := range s.node {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		st.Active = append(st.Active, *s.rec[id])
	}
	return st
}

// mirrorFingerprint renders everything a scheduler can observe of the
// mirror, so a step that changes it must have advanced StateEpoch.
func mirrorFingerprint(m *mirror) string {
	ids := make([]job.ID, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	s := ""
	for _, id := range ids {
		j := m.jobs[id]
		s += fmt.Sprintf("%d:%v:%d+%d@%d:%v ", id, j.State, j.Cores, j.DynCores, j.StartTime, m.Cluster().AllocOf(id))
	}
	for _, j := range m.QueuedJobs() {
		s += fmt.Sprintf("q%d ", j.ID)
	}
	for _, r := range m.DynRequests() {
		s += fmt.Sprintf("dyn:%d:%d:%d ", r.Job.ID, r.Seq, r.Cores)
	}
	for _, n := range m.Cluster().Nodes() {
		s += fmt.Sprintf("%s:%v:%d ", n.Name, n.State, n.Used())
	}
	return s
}

// TestLifecycleMirrorConformance holds the mirror, the third adapter of
// core.Lifecycle, to the lifecycle's rules. A model server sends random
// deltas — submissions, completions, cancellations, requeues, dynamic
// requests, nodes lost and back, and the fate of every action of the
// last commit, about half of them skipped — and between deltas the
// mirror takes random decisions: starts, grants and rejects. After every
// step: the cluster's accounting holds and its used cores are the
// server's plus this cycle's placements; every job the mirror was told
// of is queued, active or forgotten, once; the dyn list is FIFO with one
// request per job, each of an active job of the mirror; a change of
// anything the scheduler sees moved StateEpoch, a change of the queue
// moved QueueEpoch and is named by QueueChanges; and the lifecycle's
// per-job maps hold only jobs the mirror has. After every delta the
// mirror equals one built from the model's full snapshot.
func TestLifecycleMirrorConformance(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) { mirrorConformance(t, seed) })
	}
}

func mirrorConformance(t *testing.T, seed int64) {
	s := newMirrorModel(seed)
	for range 20 {
		s.submit()
	}
	clear(s.tail)
	m, err := newMirror(s.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	told, forgotten := map[job.ID]bool{}, map[job.ID]bool{}
	for id := range m.jobs {
		told[id] = true
	}
	serverUsed := func() int {
		n := 0
		for _, nd := range s.nodes {
			if nd.State == "up" {
				n += nd.Used
			}
		}
		return n
	}
	used := serverUsed() // the server's cores plus this cycle's placements
	fp, se, qe, queue := mirrorFingerprint(m), m.StateEpoch(), m.QueueEpoch(), m.QueuedJobs()
	check := func(when string) {
		t.Helper()
		if err := m.Cluster().CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if got := m.Cluster().UsedCores(); got != used {
			t.Fatalf("%s: mirror cluster uses %d cores, want %d", when, got, used)
		}
		if diff := queueFaults(m); diff != "" {
			t.Fatalf("%s: %s", when, diff)
		}
		if q, a := len(m.QueuedJobs()), len(m.ActiveJobs()); len(told) != q+a+len(forgotten) {
			t.Fatalf("%s: told of %d jobs, but %d queued + %d active + %d forgotten", when, len(told), q, a, len(forgotten))
		}
		seen := map[job.ID]bool{}
		for i, r := range m.DynRequests() {
			if i > 0 && r.Seq <= m.DynRequests()[i-1].Seq {
				t.Fatalf("%s: dyn list out of FIFO order at %d", when, i)
			}
			if seen[r.Job.ID] || m.jobs[r.Job.ID] != r.Job || !r.Job.Active() {
				t.Fatalf("%s: dyn request of job %d is a second one, or not of an active job of the mirror", when, r.Job.ID)
			}
			seen[r.Job.ID] = true
		}
		now, nowQueue := mirrorFingerprint(m), m.QueuedJobs()
		if now != fp && m.StateEpoch() == se {
			t.Fatalf("%s: the mirror changed but StateEpoch stayed at %d:\n before %s\n after  %s", when, se, fp, now)
		}
		if !slices.Equal(queue, nowQueue) {
			if m.QueueEpoch() == qe {
				t.Fatalf("%s: the queue changed but QueueEpoch stayed at %d", when, qe)
			}
			named, ok := m.QueueChanges(qe)
			if !ok {
				t.Fatalf("%s: QueueChanges(%d) no longer reaches back", when, qe)
			}
			for _, j := range append(slices.Clone(queue), nowQueue...) {
				if slices.Contains(queue, j) != slices.Contains(nowQueue, j) && !slices.Contains(named, j) {
					t.Fatalf("%s: job %d entered or left the queue unnamed by QueueChanges", when, j.ID)
				}
			}
		}
		fp, se, qe, queue = now, m.StateEpoch(), m.QueueEpoch(), nowQueue
	}
	check("snapshot")
	var starts, grants, rejects int
	for step := 0; step < 80; step++ {
		// The cycle's decisions.
		for _, j := range m.QueuedJobs() {
			if s.rng.Intn(3) == 0 {
				if _, err := m.StartJob(j); err == nil {
					used += j.Cores
					starts++
				}
				check(fmt.Sprintf("step %d, start of %d", step, j.ID))
			}
		}
		for _, r := range m.DynRequests() {
			if s.rng.Intn(2) == 0 {
				if _, err := m.GrantDyn(r); err == nil {
					used += r.TotalCores()
					grants++
				}
				check(fmt.Sprintf("step %d, grant to %d", step, r.Job.ID))
			} else if s.rng.Intn(2) == 0 {
				m.RejectDyn(r, "conformance")
				rejects++
				check(fmt.Sprintf("step %d, reject of %d", step, r.Job.ID))
			}
		}
		// The server's answer and its own changes, in the next pull.
		s.commit(m.actions)
		s.churn()
		d := s.delta()
		for _, list := range [][]proto.SchedJob{d.Jobs, d.Tail} {
			for _, sj := range list {
				told[job.ID(sj.ID)] = true
				if sj.State == "completed" || sj.State == "cancelled" {
					forgotten[job.ID(sj.ID)] = true
				}
			}
		}
		if err := m.apply(d); err != nil {
			t.Fatal(err)
		}
		used = serverUsed()
		check(fmt.Sprintf("step %d, delta", step))
		want, err := newMirror(s.snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffMirrors(m, want); diff != "" {
			t.Fatalf("step %d: mirror differs from newMirror(full snapshot): %s", step, diff)
		}
		if m.now != sim.Time(s.nowMS) {
			t.Fatalf("step %d: mirror clock %d, server's %d", step, m.now, s.nowMS)
		}
	}
	if starts == 0 || grants == 0 || rejects == 0 || len(forgotten) == 0 {
		t.Fatalf("starts %d, grants %d, rejects %d, forgotten %d: want some of each", starts, grants, rejects, len(forgotten))
	}
}
