package proto

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestReadTimeoutFiresOnSilentPeer: a hung peer (accepts, never
// writes) must not block Recv forever once a read timeout is armed.
func TestReadTimeoutFiresOnSilentPeer(t *testing.T) {
	cli, _ := pipePair(t)
	cli.SetReadTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err := cli.Recv()
	if err == nil {
		t.Fatal("Recv from a silent peer with a deadline must fail")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("want a timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v, deadline not honored", elapsed)
	}
}

// TestReadTimeoutDisarm: SetReadTimeout(0) must clear a previously
// armed deadline so a slow-but-alive peer is served normally.
func TestReadTimeoutDisarm(t *testing.T) {
	cli, srv := pipePair(t)
	cli.SetReadTimeout(50 * time.Millisecond)
	cli.SetReadTimeout(0)
	go func() {
		time.Sleep(150 * time.Millisecond) // well past the stale deadline
		_ = srv.Send(TOK, nil)
	}()
	env, err := cli.Recv()
	if err != nil || env.Type != TOK {
		t.Fatalf("Recv after disarm = %v, %v", env, err)
	}
}

// TestSetReadTimeoutUnsticksBlockedReader: arming a timeout must reach
// a Recv that is already blocked on a silent peer. The seed queued the
// store behind rm — held for the whole blocking read — so the documented
// "safe to call concurrently with Recv" could never actually interrupt
// one; this test hangs (and fails on the 2s guard) there.
func TestSetReadTimeoutUnsticksBlockedReader(t *testing.T) {
	cli, _ := pipePair(t)
	got := make(chan error, 1)
	go func() {
		_, err := cli.Recv()
		got <- err
	}()
	time.Sleep(100 * time.Millisecond) // let Recv block with no deadline armed
	cli.SetReadTimeout(50 * time.Millisecond)
	select {
	case err := <-got:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("unstuck Recv = %v, want timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SetReadTimeout did not unstick the blocked reader")
	}
}

// faultyConn fails deadline syscalls on demand, modeling a socket
// whose fd has gone bad underneath the Conn.
type faultyConn struct {
	net.Conn
	fail atomic.Bool
}

func (f *faultyConn) SetReadDeadline(tm time.Time) error {
	if f.fail.Load() {
		return errors.New("injected deadline failure")
	}
	return f.Conn.SetReadDeadline(tm)
}

// rawPair returns a connected TCP pair.
func rawPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var srv net.Conn
	done := make(chan struct{})
	go func() {
		srv, _ = ln.Accept()
		close(done)
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if srv == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// TestFailedDeadlineArmSurfaces: Recv must report a failed deadline
// arm instead of silently proceeding to read without one — the seed
// discarded the error and flipped the armed flag anyway.
func TestFailedDeadlineArmSurfaces(t *testing.T) {
	cliRaw, _ := rawPair(t)
	fc := &faultyConn{Conn: cliRaw}
	fc.fail.Store(true)
	c := NewConn(fc)
	c.SetReadTimeout(50 * time.Millisecond)
	if _, err := c.Recv(); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("Recv with failing SetReadDeadline = %v, want arm error", err)
	}
}

// TestFailedDeadlineClearRetries: when one zero-reset fails, the armed
// state must stay set so the next Recv retries the clear — the seed
// flipped it to false on the failed syscall, leaving a stale deadline
// on the socket that poisons every later Recv with instant timeouts.
func TestFailedDeadlineClearRetries(t *testing.T) {
	cliRaw, srvRaw := rawPair(t)
	fc := &faultyConn{Conn: cliRaw}
	cli, srv := NewConn(fc), NewConn(srvRaw)
	cli.SetReadTimeout(30 * time.Millisecond)
	if _, err := cli.Recv(); err == nil {
		t.Fatal("priming Recv should time out")
	}
	fc.fail.Store(true)
	cli.SetReadTimeout(0)
	if _, err := cli.Recv(); err == nil {
		t.Fatal("Recv across a failing deadline clear should error")
	}
	fc.fail.Store(false)
	go func() {
		time.Sleep(150 * time.Millisecond) // well past the stale deadline
		_ = srv.Send(TOK, nil)
	}()
	env, err := cli.Recv()
	if err != nil || env.Type != TOK {
		t.Fatalf("Recv after clear retry = %v, %v; stale deadline still armed", env, err)
	}
}

// TestWriteTimeoutFiresOnStuckPeer: a peer that never drains its
// socket must eventually fail a deadlined Send instead of wedging the
// daemon's sender.
func TestWriteTimeoutFiresOnStuckPeer(t *testing.T) {
	cli, _ := pipePair(t)
	cli.SetWriteTimeout(50 * time.Millisecond)
	// Large enough to overwhelm both kernel socket buffers (and under
	// maxFrame, or Send refuses the frame before writing); the peer
	// never reads, so the write must block and then time out.
	payload := strings.Repeat("x", 1<<23)
	var err error
	for i := 0; i < 8 && err == nil; i++ {
		err = cli.Send(TError, ErrorResp{Error: payload})
	}
	if err == nil {
		t.Fatal("Send to a stuck peer with a deadline never failed")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("want a timeout error, got %v", err)
	}
}
