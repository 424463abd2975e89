package proto

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoPeer is a peer that serves every accepted link in a loop,
// answering each message with TOK, and counts the links it accepted.
type echoPeer struct {
	ln      net.Listener
	accepts atomic.Int64
	wg      sync.WaitGroup

	mu    sync.Mutex
	conns []*Conn // guarded by mu
}

func newEchoPeer(t *testing.T, mode Mode) *echoPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &echoPeer{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepts.Add(1)
			c := NewConn(nc)
			p.mu.Lock()
			p.conns = append(p.conns, c)
			p.mu.Unlock()
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer c.Close()
				if c.AcceptHandshake(mode) != nil {
					return
				}
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
					if c.Send(TOK, nil) != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(p.close)
	return p
}

func (p *echoPeer) addr() string { return p.ln.Addr().String() }

// hangUp closes every link accepted so far, as a restarting peer would.
func (p *echoPeer) hangUp() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		_ = c.Close()
	}
	p.conns = nil
}

func (p *echoPeer) close() {
	_ = p.ln.Close()
	p.hangUp()
	p.wg.Wait()
}

func mustRequest(t *testing.T, lc *LinkCache, addr string) {
	t.Helper()
	env, err := lc.Request(addr, TJoin, JoinReq{JobID: 1})
	if err != nil || env.Type != TOK {
		t.Fatalf("request to %s = %v, %v", addr, env, err)
	}
}

// TestLinkCacheReusesOneLinkPerPeer: many requests to one peer are one
// dial, and the link's codec is the one negotiated with that peer — a
// v1-pinned peer and a v2 peer side by side keep theirs.
func TestLinkCacheReusesOneLinkPerPeer(t *testing.T) {
	old, cur := newEchoPeer(t, ModeV1), newEchoPeer(t, ModeAuto)
	lc := NewLinkCache(ModeAuto, 0)
	defer lc.Close()
	for i := 0; i < 20; i++ {
		mustRequest(t, lc, old.addr())
		mustRequest(t, lc, cur.addr())
	}
	if a, b := old.accepts.Load(), cur.accepts.Load(); a != 1 || b != 1 {
		t.Errorf("accepts = %d and %d, want one link per peer", a, b)
	}
	lc.mu.Lock()
	vOld, vCur := lc.links[old.addr()].conn.Load().Version(), lc.links[cur.addr()].conn.Load().Version()
	lc.mu.Unlock()
	if vOld != V1 || vCur != V2 {
		t.Errorf("cached links speak v%d and v%d, want v1 and v2", vOld, vCur)
	}
}

// TestLinkCacheRetriesOnceOnStaleLink: a request that finds its cached
// link dead goes out again on a fresh one; a request whose own fresh
// dial fails is not repeated.
func TestLinkCacheRetriesOnceOnStaleLink(t *testing.T) {
	p := newEchoPeer(t, ModeAuto)
	lc := NewLinkCache(ModeV2, 0) // v2: a refused dial has no v1 fallback to count
	defer lc.Close()
	mustRequest(t, lc, p.addr())
	p.hangUp()
	mustRequest(t, lc, p.addr())
	if a := p.accepts.Load(); a != 2 {
		t.Fatalf("accepts = %d, want the stale link replaced by exactly one dial", a)
	}
	addr := p.addr()
	p.close()
	if _, err := lc.Request(addr, TJoin, JoinReq{JobID: 2}); err == nil {
		t.Fatal("request to a dead peer must fail")
	}
	lc.mu.Lock()
	n := len(lc.links)
	lc.mu.Unlock()
	if n != 0 {
		t.Errorf("%d slots kept after a failed request, want the slot given up", n)
	}
}

// TestLinkCacheIdleSweepAndCap: the dialler hangs up links nobody used
// for linkIdle, and never keeps more than linkCacheCap of them.
func TestLinkCacheIdleSweepAndCap(t *testing.T) {
	lc := NewLinkCache(ModeAuto, 0)
	defer lc.Close()
	peers := make([]*echoPeer, linkCacheCap+3)
	for i := range peers {
		peers[i] = newEchoPeer(t, ModeAuto)
		mustRequest(t, lc, peers[i].addr())
	}
	// Filling the cache runs under the default linkIdle, so a slow
	// machine cannot sweep links before the cap is counted; only then
	// is the sweep shortened.
	lc.mu.Lock()
	n, oldest := len(lc.links), lc.links[peers[0].addr()]
	lc.idle = 50 * time.Millisecond
	lc.reaper.Reset(lc.idle)
	lc.mu.Unlock()
	if n != linkCacheCap || oldest != nil {
		t.Fatalf("%d links cached (least recently used kept: %v), want %d without it", n, oldest != nil, linkCacheCap)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		lc.mu.Lock()
		n, armed := len(lc.links), lc.reaper != nil
		lc.mu.Unlock()
		if n == 0 && !armed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d links still cached (sweep armed: %v) long after they went idle", n, armed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	mustRequest(t, lc, peers[1].addr()) // a swept link is simply dialled again
}

// TestLinkCacheCloseFailsRequests: Close ends a request that is waiting
// on a silent peer, and every request after it.
func TestLinkCacheCloseFailsRequests(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if nc, err := ln.Accept(); err == nil {
			accepted <- nc // held open, never read: a hung peer
		}
	}()
	lc := NewLinkCache(ModeV1, 0)
	got := make(chan error, 1)
	go func() {
		_, err := lc.Request(ln.Addr().String(), TJoin, JoinReq{JobID: 1})
		got <- err
	}()
	nc := <-accepted
	defer nc.Close()
	// The request is parked in its read once the link is published.
	for deadline := time.Now().Add(5 * time.Second); ; {
		lc.mu.Lock()
		l := lc.links[ln.Addr().String()]
		lc.mu.Unlock()
		if l != nil && l.conn.Load() != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never dialled")
		}
		time.Sleep(time.Millisecond)
	}
	lc.Close()
	select {
	case err := <-got:
		if err == nil {
			t.Error("request on a closed cache must fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the request in flight")
	}
	if _, err := lc.Request(ln.Addr().String(), TJoin, nil); err != ErrLinkCacheClosed {
		t.Errorf("request after Close = %v, want ErrLinkCacheClosed", err)
	}
}
