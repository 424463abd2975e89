package serverd

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/proto/chaos"
	"repro/internal/testutil/leak"
)

// TestAcceptFloodBounded: a flood of connections that never speak must
// not spawn a goroutine each — the handshake semaphore admits at most
// MaxHandshakes into the pre-classification stage, the rest wait in
// the kernel backlog — and a legitimate client must still get served
// as the handshake timeout recycles slots.
func TestAcceptFloodBounded(t *testing.T) {
	leak.Check(t)
	srv := New(Options{MaxHandshakes: 8, HandshakeTimeout: 150 * time.Millisecond})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	base := runtime.NumGoroutine()
	const flood = 64
	conns := make([]net.Conn, 0, flood)
	t.Cleanup(func() {
		for _, c := range conns {
			_ = c.Close()
		}
	})
	for i := 0; i < flood; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	// Let the accept loop admit what it can; with an unbounded accept
	// stage this would be ~flood new goroutines.
	time.Sleep(50 * time.Millisecond)
	if g := runtime.NumGoroutine(); g > base+8+4 {
		t.Errorf("flood of %d idle conns grew goroutines from %d to %d; want bounded by MaxHandshakes=8", flood, base, g)
	}

	// A real client queued behind the flood must be served once the
	// handshake timeout churns the idle conns out of the slots.
	c, err := proto.DialModeTimeout(srv.Addr(), proto.ModeAuto, 10*time.Second)
	if err != nil {
		t.Fatalf("client could not connect through the flood: %v", err)
	}
	defer c.Close()
	env, err := c.Request(proto.TQSub, proto.JobSpec{Name: "j", User: "u", Cores: 1, WallSecs: 60, Script: "sleep:1s"})
	if err != nil {
		t.Fatalf("qsub through the flood: %v", err)
	}
	var resp proto.QSubResp
	if err := env.Decode(&resp); err != nil || resp.JobID == 0 {
		t.Fatalf("qsub reply = %+v, %v", resp, err)
	}
}

// TestCloseUnsticksPendingHandshakes: connections parked in the
// handshake stage (no HandshakeTimeout to evict them) must be torn
// down by Close instead of wedging wg.Wait forever.
func TestCloseUnsticksPendingHandshakes(t *testing.T) {
	leak.Check(t)
	srv := New(Options{MaxHandshakes: 4})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	// Wait until all four occupy the handshake stage.
	waitFor(t, 2*time.Second, func() bool {
		return len(srv.handshakes) == 4
	}, "handshake slots filled")
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on connections parked in the handshake stage")
	}
}

// TestChaosMixedVersionMoms: a v1-pinned mom and a v2-negotiating mom
// work side by side against an auto-mode server, through a chaos proxy
// that severs every link mid-run. Both moms must reconnect (each
// keeping its own protocol version) and both jobs must complete.
func TestChaosMixedVersionMoms(t *testing.T) {
	leak.Check(t)
	srv := New(Options{
		Sched:        core.New(core.Options{}, 0),
		PollInterval: 20 * time.Millisecond,
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	proxy := chaos.New(srv.Addr(), chaos.Options{})
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)

	mkMom := func(name string, mode proto.Mode) *mom.Mom {
		m := mom.New(name, 4)
		m.Proto = mode
		m.AutoReconnect = true
		m.ReconnectBase = 50 * time.Millisecond
		m.ReconnectMax = 200 * time.Millisecond
		if err := m.Start("127.0.0.1:0", proxy.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m
	}
	mkMom("v1node", proto.ModeV1)
	mkMom("v2node", proto.ModeAuto)

	version := func(name string) int {
		return loopRead(t, srv, func() int {
			ni := srv.nodes[name]
			if ni == nil || ni.conn == nil {
				return 0
			}
			return ni.conn.Version()
		})
	}
	waitFor(t, 5*time.Second, func() bool {
		return version("v1node") != 0 && version("v2node") != 0
	}, "both moms registered")
	if v := version("v1node"); v != proto.V1 {
		t.Errorf("v1-pinned mom negotiated version %d, want %d", v, proto.V1)
	}
	if v := version("v2node"); v != proto.V2 {
		t.Errorf("auto mom negotiated version %d, want %d", v, proto.V2)
	}

	var ids []int
	for i := 0; i < 2; i++ {
		id, err := srv.QSub(proto.JobSpec{
			Name: fmt.Sprintf("mix%d", i), User: "u", Cores: 4, WallSecs: 60, Script: "sleep:300ms",
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		id := id
		waitFor(t, 5*time.Second, func() bool { return jobState(srv, id) == "running" }, "job running")
	}

	// Cut every link. The moms reconnect through the proxy — completion
	// reports ride the outbox replay — and each must come back speaking
	// the same protocol version it started with.
	proxy.SeverAll()
	for _, id := range ids {
		id := id
		waitFor(t, 15*time.Second, func() bool { return jobState(srv, id) == "completed" }, "job completed across the severance")
	}
	if v := version("v1node"); v != proto.V1 {
		t.Errorf("v1-pinned mom reconnected with version %d, want %d", v, proto.V1)
	}
	if v := version("v2node"); v != proto.V2 {
		t.Errorf("auto mom reconnected with version %d, want %d", v, proto.V2)
	}
}
