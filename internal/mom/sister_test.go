package mom

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/proto/chaos"
	"repro/internal/testutil/leak"
)

// headnode stands in for the server: it takes the moms' registrations,
// lets a test send a mom server messages, and keeps the completions
// they report.
type headnode struct {
	addr string

	mu   sync.Mutex
	moms map[string]*proto.Conn // guarded by mu: registered links by node name
	done []int                  // guarded by mu: job ids of the completions reported
}

func newHeadnode(t *testing.T) *headnode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hn := &headnode{addr: ln.Addr().String(), moms: make(map[string]*proto.Conn)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := proto.NewConn(nc)
				defer c.Close()
				if c.AcceptHandshake(proto.ModeAuto) != nil {
					return
				}
				for {
					env, err := c.Recv()
					if err != nil {
						return // the mom hung up: every mom closes before this server does
					}
					var reg proto.RegisterReq
					var done proto.JobDoneReq
					hn.mu.Lock()
					switch {
					case env.Type == proto.TRegister && env.Decode(&reg) == nil:
						hn.moms[reg.Node] = c
					case env.Type == proto.TJobDone && env.Decode(&done) == nil:
						hn.done = append(hn.done, done.JobID)
					}
					hn.mu.Unlock()
				}
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	return hn
}

// send delivers one server message to the mom registered as node,
// waiting for its registration first.
func (hn *headnode) send(t *testing.T, node string, typ proto.MsgType, payload any) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		hn.mu.Lock()
		c := hn.moms[node]
		hn.mu.Unlock()
		if c != nil {
			if err := c.Send(typ, payload); err != nil {
				t.Fatal(err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("mom %s never registered", node)
		}
	}
}

func (hn *headnode) doneJobs() []int {
	hn.mu.Lock()
	defer hn.mu.Unlock()
	return slices.Clone(hn.done)
}

func startMom(t *testing.T, name, srv string, tune func(*Mom)) *Mom {
	t.Helper()
	m := New(name, 8)
	if tune != nil {
		tune(m)
	}
	if err := m.Start("127.0.0.1:0", srv); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// frontOf puts a fault-injecting proxy in front of a mom; sisters that
// dial the proxy's address reach the mom through it.
func frontOf(t *testing.T, m *Mom) *chaos.Proxy {
	t.Helper()
	p := chaos.New(m.Addr(), chaos.Options{})
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// waitHole waits until front holds a connection in its black hole.
func waitHole(t *testing.T, front *chaos.Proxy) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); front.Stats().Blackholed == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no join reached the hole")
		}
	}
}

func join(m *Mom, to string, id int, node string) {
	m.notifyMom(to, proto.TJoin, proto.JoinReq{JobID: id, Hosts: []proto.HostSlice{{Node: node, Cores: 2}}})
}

func waitJobs(t *testing.T, m *Mom, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(m.Jobs()) != want {
		if time.Now().After(deadline) {
			t.Fatalf("mom %s knows jobs %v, want %d of them", m.Name(), m.Jobs(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func (m *Mom) inboundLinks() []*proto.Conn {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*proto.Conn
	for c := range m.inbound {
		out = append(out, c)
	}
	return out
}

// TestChaosSisterLinkReuse: N joins to one sister are one dial, the
// accepting mom never hangs up a link that goes quiet — its handshake
// window applies to a link's first message only — and a link cut while
// it sat in the cache costs the next join one fresh dial, not the join.
func TestChaosSisterLinkReuse(t *testing.T) {
	leak.Check(t)
	srv := newHeadnode(t).addr
	// v2 and not auto, so that a refused dial is one dial: auto would
	// try the peer once more as a v1 peer.
	a := startMom(t, "a", srv, func(m *Mom) { m.Proto = proto.ModeV2 })
	b := startMom(t, "b", srv, func(m *Mom) { m.HandshakeTimeout = 50 * time.Millisecond })
	front := frontOf(t, b)
	for id := 1; id <= 10; id++ {
		join(a, front.Addr(), id, "b")
	}
	waitJobs(t, b, 10)
	time.Sleep(4 * b.HandshakeTimeout) // a deadline that outlived the first message would fire now
	join(a, front.Addr(), 11, "b")
	waitJobs(t, b, 11)
	if st := front.Stats(); st.Accepted != 1 {
		t.Fatalf("11 joins took %d dials, want 1", st.Accepted)
	}

	front.SeverAll()
	join(a, front.Addr(), 12, "b")
	waitJobs(t, b, 12)
	if st := front.Stats(); st.Accepted != 2 {
		t.Errorf("a join over a severed link took %d dials in all, want 2", st.Accepted)
	}

	// A join whose own dial fails is lost, as it always was: no third try.
	front.RefuseNext(8)
	front.SeverAll()
	join(a, front.Addr(), 13, "b")
	if st := front.Stats(); st.Refused != 1 {
		t.Errorf("%d dials refused, want the one retry and no more", st.Refused)
	}
	if n := len(b.Jobs()); n != 12 {
		t.Errorf("sister knows %d jobs, want 12", n)
	}
}

// TestChaosSisterMixedVersions: a v1-pinned sister and a v2 sister keep
// the codec each negotiated, on links that are reused side by side.
func TestChaosSisterMixedVersions(t *testing.T) {
	leak.Check(t)
	srv := newHeadnode(t).addr
	a := startMom(t, "a", srv, nil)
	old := startMom(t, "old", srv, func(m *Mom) { m.Proto = proto.ModeV1 })
	cur := startMom(t, "cur", srv, nil)
	for id := 1; id <= 5; id++ {
		join(a, old.Addr(), id, "old")
		join(a, cur.Addr(), id, "cur")
	}
	waitJobs(t, old, 5)
	waitJobs(t, cur, 5)
	for _, c := range []struct {
		m    *Mom
		want int
	}{{old, proto.V1}, {cur, proto.V2}} {
		if links := c.m.inboundLinks(); len(links) != 1 {
			t.Errorf("sister %s serves %d links, want 1", c.m.Name(), len(links))
		} else if v := links[0].Version(); v != c.want {
			t.Errorf("sister %s's link speaks v%d, want v%d", c.m.Name(), v, c.want)
		}
	}
}

// TestChaosSisterBlackhole: a sister that accepts and then says nothing
// holds up the joins sent to it and no others, and Close does not wait
// for it.
func TestChaosSisterBlackhole(t *testing.T) {
	leak.Check(t)
	srv := newHeadnode(t).addr
	a := startMom(t, "a", srv, nil)
	b := startMom(t, "b", srv, nil)
	c := startMom(t, "c", srv, nil)
	front := frontOf(t, b)
	join(a, front.Addr(), 1, "b") // the link to b exists and is cached
	waitJobs(t, b, 1)
	front.Blackhole(true)
	front.SeverAll() // the retry's dial lands in the hole
	stuck := make(chan struct{})
	go func() {
		defer close(stuck)
		join(a, front.Addr(), 2, "b")
	}()
	waitHole(t, front)
	start := time.Now()
	join(a, c.Addr(), 3, "c")
	waitJobs(t, c, 1)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("a join to c took %v beside a hung join to b", d)
	}
	select {
	case <-stuck:
		t.Fatal("the join to b returned from a black hole")
	default:
	}
	// Close must end the hung request (its link is in the cache by now:
	// the proxy accepted it) and must not wait for b or c to hang up
	// the sessions they hold with a.
	join(b, a.Addr(), 4, "a")
	join(c, a.Addr(), 5, "a")
	waitJobs(t, a, 2)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		a.Close()
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a sister that is still up")
	}
	<-stuck
}
