package mauid

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/proto"
	"repro/internal/rms"
	"repro/internal/serverd"
	"repro/internal/sim"
	"repro/internal/testutil/leak"
)

// shimMom plays a mom at the wire level so a test decides when a job
// finishes, asks for cores, gives them back, or loses its node.
type shimMom struct {
	t     *testing.T
	name  string
	cores int
	srv   string
	pong  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	c      *proto.Conn      // guarded by mu: nil while the link is down
	silent bool             // guarded by mu: stop heartbeating (the node will be declared down)
	jobs   map[int]*shimJob // guarded by mu: jobs this shim is mother superior of
}

// shimJob is reached through shimMom.jobs and shares its lock.
type shimJob struct {
	evolving bool
	pending  bool              // guarded by m.mu: a tm_dynget is with the server
	extra    []proto.HostSlice // guarded by m.mu: granted and not yet freed
}

// register opens the link, reporting the given job ids as still hosted.
func (m *shimMom) register(jobs []int) {
	m.t.Helper()
	c, err := proto.DialMode(m.srv, proto.ModeAuto)
	if err != nil {
		m.t.Fatal(err)
	}
	if err := c.Send(proto.TRegister, proto.RegisterReq{Node: m.name, Addr: "shim:" + m.name, Cores: m.cores, Jobs: jobs}); err != nil {
		m.t.Fatal(err)
	}
	m.mu.Lock()
	m.c = c
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			env, err := c.Recv()
			if err != nil {
				return
			}
			m.handle(env)
		}
	}()
}

func (m *shimMom) handle(env *proto.Envelope) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if env.Type == proto.TRunJob {
		var req proto.RunJobReq
		if env.Decode(&req) == nil {
			m.jobs[req.JobID] = &shimJob{evolving: req.Spec.Evolving}
		}
	} else if env.Type == proto.TKillJob {
		var req proto.KillJobReq
		if env.Decode(&req) == nil {
			delete(m.jobs, req.JobID)
		}
	} else if env.Type == proto.TDynGetResp {
		var resp proto.DynGetResp
		if env.Decode(&resp) != nil {
			return
		}
		if resp.JobID == 0 {
			select {
			case m.pong <- struct{}{}:
			default:
			}
		} else if j := m.jobs[resp.JobID]; j != nil {
			j.pending = false
			j.extra = append(j.extra, resp.Hosts...)
		}
	}
}

func (m *shimMom) link() *proto.Conn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c
}

func (m *shimMom) hangUp() {
	m.mu.Lock()
	if m.c != nil {
		_ = m.c.Close()
		m.c = nil
	}
	m.mu.Unlock()
}

// settle returns once the server has applied everything this shim sent
// and the shim has read everything the server sent before that: a
// tm_dynget for job 0 is refused through the mom's ingest shard, in
// order.
func (m *shimMom) settle() {
	c := m.link()
	if c == nil {
		return
	}
	if c.Send(proto.TDynGet, proto.DynGetReq{JobID: 0, Cores: 1}) != nil {
		return
	}
	select {
	case <-m.pong:
	case <-time.After(5 * time.Second):
		m.t.Errorf("shim %s: the server never answered the settle probe", m.name)
	}
}

// pick returns a hosted job id accepted by ok, or 0.
func (m *shimMom) pick(rng *rand.Rand, ok func(*shimJob) bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []int
	for id, j := range m.jobs {
		if ok(j) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0
	}
	sort.Ints(ids)
	return ids[rng.Intn(len(ids))]
}

// diffMirrors describes the first difference between the persistent
// mirror and one built from a full snapshot of the same server state.
func diffMirrors(got, want *mirror) string {
	if len(got.jobs) != len(want.jobs) {
		return fmt.Sprintf("mirror holds %d jobs, snapshot %d", len(got.jobs), len(want.jobs))
	}
	// record is a job's record without its place in the queue, which
	// differs between a queue that grew by deltas and a fresh one.
	record := func(j *job.Job) (r job.Job) {
		r.Overwrite(*j)
		return r
	}
	for id, w := range want.jobs {
		g := got.jobs[id]
		if g == nil {
			return fmt.Sprintf("job %d missing from the mirror", id)
		}
		if record(g) != record(w) {
			return fmt.Sprintf("job %d:\n mirror   %+v\n snapshot %+v", id, record(g), record(w))
		}
	}
	ids := func(js []*job.Job) []job.ID {
		out := make([]job.ID, len(js))
		for i, j := range js {
			out[i] = j.ID
		}
		return out
	}
	if diff := queueFaults(got); diff != "" {
		return diff
	}
	if g, w := ids(got.QueuedJobs()), ids(want.QueuedJobs()); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("queue order:\n mirror   %v\n snapshot %v", g, w)
	}
	if g, w := ids(got.ActiveJobs()), ids(want.ActiveJobs()); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("active order:\n mirror   %v\n snapshot %v", g, w)
	}
	type dynKey struct {
		id                     job.ID
		cores, nodes, ppn, seq int
		deadline               sim.Time
	}
	dyn := func(rs []*job.DynRequest) []dynKey {
		out := make([]dynKey, len(rs))
		for i, r := range rs {
			out[i] = dynKey{r.Job.ID, r.Cores, r.Nodes, r.PPN, r.Seq, r.Deadline}
		}
		return out
	}
	if g, w := dyn(got.DynRequests()), dyn(want.DynRequests()); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("dyn FIFO:\n mirror   %v\n snapshot %v", g, w)
	}
	for _, r := range got.DynRequests() {
		if r.Job != got.jobs[r.Job.ID] {
			return fmt.Sprintf("dyn request of job %d does not point at the mirror's job", r.Job.ID)
		}
	}
	if g, w := got.Cluster().Snapshot(), want.Cluster().Snapshot(); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("idle cores per node:\n mirror   %v\n snapshot %v", g, w)
	}
	for i, n := range want.Cluster().Nodes() {
		if got.Cluster().Node(i).State != n.State {
			return fmt.Sprintf("node %d is %s in the mirror, %s in the snapshot", i, got.Cluster().Node(i).State, n.State)
		}
	}
	return ""
}

// queueFaults describes the first way m's lists break their own rules:
// the queue and the running set hold each of the mirror's queued and
// active jobs exactly once, no other job and no empty slot, and the
// lifecycle's per-job maps hold only jobs the mirror has.
func queueFaults(m *mirror) string {
	listed := map[*job.Job]bool{}
	for _, l := range [][]*job.Job{m.QueuedJobs(), m.ActiveJobs()} {
		for _, j := range l {
			if j == nil || m.jobs[j.ID] != j || listed[j] {
				return fmt.Sprintf("queue %v and running set %v: %v is not one of the mirror's jobs, once", m.QueuedJobs(), m.ActiveJobs(), j)
			}
			listed[j] = true
		}
	}
	for _, j := range m.QueuedJobs() {
		if j.State != job.Queued {
			return fmt.Sprintf("job %d is %s in the queue", j.ID, j.State)
		}
	}
	if len(listed) != len(m.jobs) {
		return fmt.Sprintf("the queue and running set hold %d jobs, the mirror %d", len(listed), len(m.jobs))
	}
	for name, ids := range lifecycleMaps(&m.Lifecycle) {
		for _, id := range ids {
			if m.jobs[id] == nil {
				return fmt.Sprintf("the lifecycle's %s holds job %d, which the mirror has forgotten", name, id)
			}
		}
	}
	return ""
}

// lifecycleMaps returns the keys of every job-keyed map the lifecycle
// holds, by field name: what it keeps per job beside its lists.
func lifecycleMaps(l *core.Lifecycle) map[string][]job.ID {
	out := map[string][]job.ID{}
	v := reflect.ValueOf(l).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Map || f.Type().Key() != reflect.TypeFor[job.ID]() {
			continue
		}
		ids := []job.ID{}
		for _, k := range f.MapKeys() {
			ids = append(ids, job.ID(k.Int()))
		}
		out[v.Type().Field(i).Name] = ids
	}
	return out
}

// slotKept reports whether the mirror's queue still keeps the slot j,
// taken out of it, left empty: whether a re-seat of j is a store into
// that slot rather than an ordered insert.
func slotKept(m *mirror, j *job.Job) bool {
	key := reflect.ValueOf(j).Elem().FieldByName("qkey").Uint()
	keys := reflect.ValueOf(&m.Lifecycle).Elem().FieldByName("queue").FieldByName("keys")
	for i := 0; i < keys.Len(); i++ {
		if keys.Index(i).Uint() == key {
			return true
		}
	}
	return false
}

// fullPull fetches the full snapshot the way a one-shot client does.
func fullPull(t *testing.T, addr string) *proto.SchedState {
	t.Helper()
	c, err := proto.DialMode(addr, proto.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	env, err := c.Request(proto.TSchedPull, nil)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != proto.TSchedState {
		t.Fatalf("a link's first sched.pull answered %s", env.Type)
	}
	var st proto.SchedState
	if err := env.Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// oracleCycle is one scheduler cycle taken apart: pull on the daemon's
// link, require the mirror to equal one built from a full snapshot of
// the same server state, then plan and commit as RunOnce does.
func oracleCycle(t *testing.T, d *Daemon, addr, when string) (applied, skipped int) {
	t.Helper()
	d.cycle.Lock()
	defer d.cycle.Unlock()
	var now sim.Time
	for try := 0; ; try++ {
		st := fullPull(t, addr)
		var err error
		if now, err = d.pull(); err != nil {
			t.Fatalf("%s: pull: %v", when, err)
		}
		if d.m.srvSerial != st.Serial {
			// A timer or a late mom message moved the server between
			// the two pulls; take another pair.
			if try == 100 {
				t.Fatalf("%s: the server never held still", when)
			}
			continue
		}
		want, err := newMirror(st)
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffMirrors(d.m, want); diff != "" {
			t.Fatalf("%s: persistent mirror differs from newMirror(full snapshot): %s", when, diff)
		}
		break
	}
	d.sched.Iterate(now, d.m)
	if len(d.m.actions) == 0 {
		return 0, 0
	}
	resp, err := d.commit(proto.SchedCommit{Serial: d.m.srvSerial, Actions: d.m.actions})
	if err != nil {
		t.Fatalf("%s: commit: %v", when, err)
	}
	return resp.Applied, resp.Skipped
}

// TestMirrorOracleDifferential drives a live server and wire-level moms
// through a seeded mix of everything that changes scheduler-visible
// state, and after every step requires the daemon's persistent mirror
// (full snapshot once, deltas since) to equal a mirror built from
// scratch: job fields, queue order, active order, dyn FIFO, idle cores
// and state per node.
func TestMirrorOracleDifferential(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { oracleRun(t, seed) })
	}
}

func oracleRun(t *testing.T, seed int64) {
	leak.Check(t)
	rng := rand.New(rand.NewSource(seed))
	slow := seed%5 == 0 // these seeds also wait out a walltime kill and a heartbeat timeout
	opts := serverd.Options{FailurePolicy: rms.FailRequeue}
	if slow {
		opts.HeartbeatInterval = 100 * time.Millisecond
	}
	srv := serverd.New(opts)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const nShims, shimCores = 4, 8
	shims := make([]*shimMom, nShims)
	for i := range shims {
		shims[i] = &shimMom{t: t, name: fmt.Sprintf("shim%d", i), cores: shimCores, srv: srv.Addr(),
			pong: make(chan struct{}, 1), jobs: map[int]*shimJob{}}
		shims[i].register(nil)
		defer shims[i].wg.Wait()
		defer shims[i].hangUp()
	}
	for len(srv.QStat().Nodes) < nShims {
		time.Sleep(time.Millisecond)
	}
	if slow {
		stop := make(chan struct{})
		var beat sync.WaitGroup
		beat.Add(1)
		go func() {
			defer beat.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(10 * time.Millisecond):
				}
				for _, m := range shims {
					m.mu.Lock()
					c, silent := m.c, m.silent
					m.mu.Unlock()
					if c != nil && !silent {
						_ = c.Send(proto.THeartbeat, proto.HeartbeatReq{Node: m.name})
					}
				}
			}
		}()
		defer beat.Wait()
		defer close(stop)
	}
	d := New(srv.Addr(), core.New(core.Options{}, 0), time.Hour)
	defer d.Close()

	lastID, wallJob := 0, 0
	qsub := func(cores int, wall int64, evolving bool) int {
		id, err := srv.QSub(proto.JobSpec{Name: "o", User: fmt.Sprintf("u%d", rng.Intn(5)), Cores: cores,
			WallSecs: wall, Script: "shim", Evolving: evolving})
		if err != nil {
			t.Fatal(err)
		}
		lastID = id
		return id
	}
	anyJob := func(*shimJob) bool { return true }
	var sawSkip, sawGrant, sawRequeue bool
	var first *mirror
	for step := 0; step < 90; step++ {
		m := shims[rng.Intn(nShims)]
		what := "idle"
		switch r := rng.Intn(100); {
		case slow && step == 5:
			what = "qsub a one-second job"
			wallJob = qsub(1, 1, false)
		case slow && step == 40:
			what = "silence " + m.name
			m.mu.Lock()
			m.silent = true
			m.mu.Unlock()
		case r < 34:
			what = "qsub"
			qsub(1+rng.Intn(6), 3600, rng.Intn(3) == 0)
		case r < 56:
			if id := m.pick(rng, anyJob); id != 0 && m.link() != nil {
				what = fmt.Sprintf("job %d done on %s", id, m.name)
				_ = m.link().Send(proto.TJobDone, proto.JobDoneReq{JobID: id})
				m.mu.Lock()
				delete(m.jobs, id)
				m.mu.Unlock()
			}
		case r < 62:
			if lastID > 0 {
				id := 1 + rng.Intn(lastID)
				what = fmt.Sprintf("qdel %d", id)
				srv.QDel(id)
			}
		case r < 76:
			if id := m.pick(rng, func(j *shimJob) bool { return j.evolving && !j.pending }); id != 0 && m.link() != nil {
				// Up to 20 cores on a 32-core cluster: some fit, some cannot.
				cores := 1 + rng.Intn(20)
				what = fmt.Sprintf("tm_dynget %d cores for job %d", cores, id)
				m.mu.Lock()
				m.jobs[id].pending = true
				m.mu.Unlock()
				_ = m.link().Send(proto.TDynGet, proto.DynGetReq{JobID: id, Cores: cores})
			}
		case r < 84:
			if id := m.pick(rng, func(j *shimJob) bool { return len(j.extra) > 0 }); id != 0 && m.link() != nil {
				m.mu.Lock()
				j := m.jobs[id]
				free := j.extra[:1]
				j.extra = j.extra[1:]
				m.mu.Unlock()
				what = fmt.Sprintf("tm_dynfree %v of job %d", free, id)
				sawGrant = true
				_ = m.link().Send(proto.TDynFree, proto.DynFreeReq{JobID: id, Hosts: free})
			}
		case r < 93:
			m.mu.Lock()
			silent := m.silent
			m.mu.Unlock()
			if silent {
				break // its node is on the way down; the end of the run brings it back
			}
			if m.link() != nil {
				what = "cut the link of " + m.name
				m.hangUp()
			} else {
				// Back with a random subset of its jobs: the server
				// requeues the ones the "restarted" mom lost.
				var kept []int
				m.mu.Lock()
				for id := range m.jobs {
					if rng.Intn(2) == 0 {
						kept = append(kept, id)
					} else {
						delete(m.jobs, id)
						sawRequeue = true
					}
				}
				m.mu.Unlock()
				sort.Ints(kept)
				what = fmt.Sprintf("re-register %s with jobs %v", m.name, kept)
				m.register(kept)
			}
		}
		for _, m := range shims {
			m.settle()
		}
		_, skipped := oracleCycle(t, d, srv.Addr(), fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
		sawSkip = sawSkip || skipped > 0
		if step == 0 {
			first = d.m
		} else if d.m != first {
			t.Fatalf("step %d: the mirror was rebuilt although the link never failed", step)
		}
	}
	if slow {
		// Wait out the timers, then check the mirror caught what they did.
		deadline := time.Now().Add(10 * time.Second)
		for {
			qs := srv.QStat()
			down, killed := false, false
			for _, n := range qs.Nodes {
				down = down || n.State == "down"
			}
			for _, j := range qs.Jobs {
				killed = killed || (j.ID == wallJob && j.State != "running" && j.State != "dynqueued")
			}
			if down && killed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("timers never fired: node down %v, one-second job settled %v", down, killed)
			}
			time.Sleep(10 * time.Millisecond)
		}
		oracleCycle(t, d, srv.Addr(), fmt.Sprintf("seed %d after the timers", seed))
		for _, m := range shims {
			m.mu.Lock()
			silent := m.silent
			m.silent = false
			m.mu.Unlock()
			if silent {
				m.hangUp()
				m.register(nil)
				m.settle()
			}
		}
		oracleCycle(t, d, srv.Addr(), fmt.Sprintf("seed %d after the node came back", seed))
		oracleCycle(t, d, srv.Addr(), fmt.Sprintf("seed %d at the end", seed))
	}
	t.Logf("seed %d: %d jobs; saw a skipped action %v, a grant %v, a requeue %v", seed, lastID, sawSkip, sawGrant, sawRequeue)
}

// TestSkippedStartConverges: a start the server skips — the job's
// mother superior has lost its link — leaves the mirror believing the
// job runs; the next delta puts it back in the queue, in place.
func TestSkippedStartConverges(t *testing.T) {
	leak.Check(t)
	srv := serverd.New(serverd.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := &shimMom{t: t, name: "lonely", cores: 8, srv: srv.Addr(), pong: make(chan struct{}, 1), jobs: map[int]*shimJob{}}
	m.register(nil)
	defer m.wg.Wait()
	defer m.hangUp()
	for len(srv.QStat().Nodes) < 1 {
		time.Sleep(time.Millisecond)
	}
	d := New(srv.Addr(), core.New(core.Options{}, 0), time.Hour)
	defer d.Close()
	// Three jobs that fit together; the blocker keeps the first two from
	// being the whole queue.
	var ids []int
	for _, cores := range []int{2, 3, 9} {
		id, err := srv.QSub(proto.JobSpec{Name: "s", User: "u", Cores: cores, WallSecs: 60, Script: "shim"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if a, s := oracleCycle(t, d, srv.Addr(), "with the mom up"); a != 2 || s != 0 {
		t.Fatalf("with the mom up: applied %d, skipped %d, want 2/0", a, s)
	}
	m.settle()
	for _, id := range ids[:2] {
		_ = m.link().Send(proto.TJobDone, proto.JobDoneReq{JobID: id})
	}
	m.settle()
	m.hangUp()
	// The server notices the hang-up on its own time: keep offering a
	// job until a start is skipped.
	deadline := time.Now().Add(5 * time.Second)
	for {
		id, err := srv.QSub(proto.JobSpec{Name: "s", User: "u", Cores: 1, WallSecs: 60, Script: "shim"})
		if err != nil {
			t.Fatal(err)
		}
		_, skipped := oracleCycle(t, d, srv.Addr(), "with the mom gone")
		if skipped > 0 {
			d.cycle.Lock()
			j := d.m.jobs[job.ID(id)]
			d.cycle.Unlock()
			if j == nil || j.State != job.Running {
				t.Fatalf("after the skipped commit the mirror should still guess job %d runs: %+v", id, j)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no start was ever skipped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The next pull is a delta naming the skipped job; the oracle
	// comparison inside checks it is queued again, in queue order.
	before := d.m
	oracleCycle(t, d, srv.Addr(), "after the skipped start")
	if d.m != before {
		t.Error("the mirror was rebuilt; the skipped start should have been repaired by a delta")
	}
	if d.m.Cluster().Node(0).State != cluster.Up {
		t.Error("node state changed")
	}
}

// TestMirrorEmptySlotsOracle holds the queue's empty slots to a fresh
// mirror. A model server refuses about half of every commit's starts,
// so that skipped starts come back both into the slots their dequeue
// emptied and, when the cycle started enough jobs to close the slots
// up, by ordered insert. After every start and every delta the queue
// must keep its own rules, and after every delta equal newMirror of
// the model's full snapshot.
func TestMirrorEmptySlotsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const cores = 4096
	var (
		queue   []int // the model server's queue, in order
		running []int
		rec     = map[int]*proto.SchedJob{}
		next    = 1
		serial  = uint64(1)
		nowMS   = int64(1000)
	)
	submit := func() *proto.SchedJob {
		sj := &proto.SchedJob{ID: next, Name: "e", User: fmt.Sprintf("u%d", next%7), Group: "g", State: "queued",
			Cores: 1, WallSecs: 60, SubmitMS: nowMS}
		rec[next] = sj
		queue = append(queue, next)
		next++
		return sj
	}
	nodes := func() []proto.NodeStatus {
		return []proto.NodeStatus{{Name: "n0", Cores: cores, Used: len(running), State: "up"}}
	}
	snapshot := func() *proto.SchedState {
		st := &proto.SchedState{NowMS: nowMS, Nodes: nodes(), Serial: serial}
		for _, id := range queue {
			st.Queued = append(st.Queued, *rec[id])
		}
		slices.Sort(running)
		for _, id := range running {
			st.Active = append(st.Active, *rec[id])
		}
		return st
	}
	for range 200 {
		submit()
	}
	m, err := newMirror(snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var intoSlot, byInsert int
	for step := 0; step < 60; step++ {
		// The cycle: start a random share of the queue, up to all of it.
		share := rng.Float64()
		var started []*job.Job
		for _, j := range m.QueuedJobs() {
			if rng.Float64() < share {
				started = append(started, j)
			}
		}
		for _, j := range started {
			if _, err := m.StartJob(j); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if diff := queueFaults(m); diff != "" {
				t.Fatalf("step %d, after starting job %d: %s", step, j.ID, diff)
			}
		}
		// The server applies about half of the starts and skips the rest;
		// it finishes some running jobs and takes new submissions.
		nowMS += 1000
		serial++
		d := &proto.SchedDelta{NowMS: nowMS, Serial: serial}
		skipped := map[int]bool{}
		for _, j := range started {
			id := int(j.ID)
			if rng.Intn(2) == 0 {
				skipped[id] = true
				if slotKept(m, j) {
					intoSlot++
				} else {
					byInsert++
				}
			} else {
				rec[id].State, rec[id].StartMS = "running", nowMS
				running = append(running, id)
			}
			d.Jobs = append(d.Jobs, *rec[id])
		}
		queue = slices.DeleteFunc(queue, func(id int) bool { return rec[id].State == "running" })
		for i := 0; i < len(running); {
			if id := running[i]; rng.Intn(3) == 0 {
				rec[id].State = "completed"
				d.Jobs = append(d.Jobs, *rec[id])
				delete(rec, id)
				running = slices.Delete(running, i, i+1)
			} else {
				i++
			}
		}
		for range rng.Intn(40) {
			d.Tail = append(d.Tail, *submit())
		}
		d.Nodes = nodes()
		if err := m.apply(d); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for id := range skipped {
			if j := m.jobs[job.ID(id)]; j == nil || j.State != job.Queued {
				t.Fatalf("step %d: skipped start of job %d not back in the queue", step, id)
			}
		}
		want, err := newMirror(snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffMirrors(m, want); diff != "" {
			t.Fatalf("step %d: mirror differs from newMirror(full snapshot): %s", step, diff)
		}
	}
	t.Logf("skipped starts re-seated: %d into their slots, %d by ordered insert", intoSlot, byInsert)
	if intoSlot == 0 || byInsert == 0 {
		t.Fatalf("re-seated %d skipped starts into their slots and %d by ordered insert; want both", intoSlot, byInsert)
	}
}
