package mom

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/testutil/leak"
	"repro/internal/tm"
)

// probes holds, by job id, what the "probe" go app does when it runs.
var probes sync.Map // int → func()

func init() {
	RegisterGoApp("probe", func(_ context.Context, tmc *tm.Context) error {
		if f, ok := probes.Load(tmc.JobID); ok {
			f.(func())()
		}
		return nil
	})
}

// probe makes job id's application call f when it starts.
func probe(t *testing.T, id int, f func()) {
	probes.Store(id, f)
	t.Cleanup(func() { probes.Delete(id) })
}

// runReq starts job id's "go:probe" application on hosts[0].
func runReq(id int, hosts ...proto.HostSlice) proto.RunJobReq {
	return proto.RunJobReq{JobID: id, Spec: proto.JobSpec{Script: "go:probe"}, Hosts: hosts}
}

func slot(m *Mom) proto.HostSlice {
	return proto.HostSlice{Node: m.Name(), Addr: m.Addr(), Cores: 2}
}

// sisterCores is what m holds for job id of another mother superior.
func (m *Mom) sisterCores(id int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sister[id]
}

// TestChaosBlackholedSisterStallsOneJob: a sister that never answers
// holds up the launch of the job it was joined for, and neither the
// mother superior's next job on another sister nor its server link.
func TestChaosBlackholedSisterStallsOneJob(t *testing.T) {
	leak.Check(t)
	hn := newHeadnode(t)
	a := startMom(t, "a", hn.addr, nil)
	b := startMom(t, "b", hn.addr, nil)
	c := startMom(t, "c", hn.addr, nil)
	front := frontOf(t, b)
	front.Blackhole(true)
	var ran1 atomic.Bool
	probe(t, 1, func() { ran1.Store(true) })
	launched := make(chan struct{})
	probe(t, 2, func() { close(launched) })

	hn.send(t, "a", proto.TRunJob, runReq(1, slot(a), proto.HostSlice{Node: "b", Addr: front.Addr(), Cores: 2}))
	waitHole(t, front)
	hn.send(t, "a", proto.TRunJob, runReq(2, slot(a), slot(c)))
	select {
	case <-launched:
	case <-time.After(time.Second):
		t.Fatal("job 2 did not launch beside job 1's hung join")
	}
	if ran1.Load() {
		t.Error("job 1 launched before its sister confirmed the join")
	}
}

// TestJoinConfirmedBeforeLaunch: the application starts only once every
// sister has answered its join (Fig. 2), however many sisters there are.
func TestJoinConfirmedBeforeLaunch(t *testing.T) {
	leak.Check(t)
	hn := newHeadnode(t)
	a := startMom(t, "a", hn.addr, nil)
	sisters := []*Mom{startMom(t, "b", hn.addr, nil), startMom(t, "c", hn.addr, nil), startMom(t, "d", hn.addr, nil)}
	missing := make(chan []string, 1)
	probe(t, 1, func() {
		var not []string
		for _, s := range sisters {
			if !slices.Contains(s.Jobs(), 1) {
				not = append(not, s.Name())
			}
		}
		missing <- not
	})

	hn.send(t, "a", proto.TRunJob, runReq(1, slot(a), slot(sisters[0]), slot(sisters[1]), slot(sisters[2])))
	select {
	case not := <-missing:
		if len(not) > 0 {
			t.Errorf("the application started before %v had joined", not)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job 1 never launched")
	}
}

// TestChaosKillDuringJoinNeverLaunches: a job killed while its join is
// in flight never starts, and no completion is reported for it.
func TestChaosKillDuringJoinNeverLaunches(t *testing.T) {
	leak.Check(t)
	hn := newHeadnode(t)
	a := startMom(t, "a", hn.addr, func(m *Mom) { m.Proto = proto.ModeV1 })
	b := startMom(t, "b", hn.addr, nil)
	front := frontOf(t, b)
	front.Blackhole(true)
	var ran atomic.Bool
	probe(t, 1, func() { ran.Store(true) })

	hn.send(t, "a", proto.TRunJob, runReq(1, slot(a), proto.HostSlice{Node: "b", Addr: front.Addr(), Cores: 2}))
	waitHole(t, front)
	hn.send(t, "a", proto.TKillJob, proto.KillJobReq{JobID: 1})
	waitJobs(t, a, 0)
	front.SeverAll() // the join fails only now, after the kill
	a.Close()        // and the job's goroutine has returned
	if ran.Load() {
		t.Error("a job killed during its join was launched")
	}
	a.mu.Lock()
	parked := len(a.outbox)
	a.mu.Unlock()
	if done := hn.doneJobs(); len(done) > 0 || parked > 0 {
		t.Errorf("completions reported %v, parked %d; want none", done, parked)
	}
}

// TestDynJoinRepeatedNodeCountsOnce: a host list that names a node
// twice sends that sister one dyn_join and one dyn_disjoin, so the
// sister counts the node's cores once each way.
func TestDynJoinRepeatedNodeCountsOnce(t *testing.T) {
	leak.Check(t)
	srv := newHeadnode(t).addr
	a := startMom(t, "a", srv, nil)
	b := startMom(t, "b", srv, nil)
	grant := []proto.HostSlice{{Node: "b", Addr: b.Addr(), Cores: 2}, {Node: "b", Addr: b.Addr(), Cores: 3}}
	a.handleDynGetResp(proto.DynGetResp{JobID: 7, Granted: true, Hosts: grant})
	if got := b.sisterCores(7); got != 5 {
		t.Fatalf("sister holds %d cores after the dyn_join, want 5", got)
	}
	free := []proto.HostSlice{{Node: "b", Addr: b.Addr(), Cores: 1}, {Node: "b", Addr: b.Addr(), Cores: 1}}
	a.fanOut(proto.TDynDisjoin, proto.JoinReq{JobID: 7, Hosts: free})
	if got := b.sisterCores(7); got != 3 {
		t.Errorf("sister holds %d cores after the dyn_disjoin, want 3", got)
	}
}

// TestChaosCloseEndsHungHandshake: a sister link that negotiates its
// codec is in the cache from its connect on, before its handshake, so a
// sister that accepts and then says nothing cannot hold Close: Close
// ends the handshake, and the auto mode's fallback to a plain dial does
// not start a fresh wait.
func TestChaosCloseEndsHungHandshake(t *testing.T) {
	leak.Check(t)
	hn := newHeadnode(t)
	a := startMom(t, "a", hn.addr, nil) // auto mode, no handshake timeout
	b := startMom(t, "b", hn.addr, nil)
	front := frontOf(t, b)
	front.Blackhole(true)
	hn.send(t, "a", proto.TRunJob, runReq(1, slot(a), proto.HostSlice{Node: "b", Addr: front.Addr(), Cores: 2}))
	waitHole(t, front)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		a.Close()
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a sister link held in its handshake")
	}
}
