package proto_test

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/proto"
)

// handshakePair wires two Conns over an in-memory pipe and runs the
// version negotiation with the same mode on both ends.
func handshakePair(t testing.TB, m proto.Mode) (*proto.Conn, *proto.Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := proto.NewConn(a), proto.NewConn(b)
	t.Cleanup(func() {
		_ = ca.Close()
		_ = cb.Close()
	})
	if m == proto.ModeV1 {
		return ca, cb
	}
	done := make(chan error, 1)
	go func() { done <- cb.AcceptHandshake(m) }()
	if err := ca.ClientHandshake(m); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return ca, cb
}

// trip sends one payload and decodes the received envelope into dst.
func trip(t *testing.T, ca, cb *proto.Conn, typ proto.MsgType, payload, dst any) {
	t.Helper()
	sendErr := make(chan error, 1)
	go func() { sendErr <- ca.Send(typ, payload) }()
	env, err := cb.Recv()
	if serr := <-sendErr; serr != nil {
		t.Fatalf("send %s: %v", typ, serr)
	}
	if err != nil {
		t.Fatalf("recv %s: %v", typ, err)
	}
	if env.Type != typ {
		t.Fatalf("type = %q, want %q", env.Type, typ)
	}
	if dst != nil {
		if err := env.Decode(dst); err != nil {
			t.Fatalf("decode %s: %v", typ, err)
		}
	}
}

func TestV2NegotiationAndPayloads(t *testing.T) {
	ca, cb := handshakePair(t, proto.ModeAuto)
	if ca.Version() != 2 || cb.Version() != 2 {
		t.Fatalf("negotiated versions = %d/%d, want 2/2", ca.Version(), cb.Version())
	}

	hb := proto.HeartbeatReq{Node: "mom-00042", Seq: 17, SentMS: 1723}
	var gotHB proto.HeartbeatReq
	trip(t, ca, cb, proto.THeartbeat, &hb, &gotHB)
	if gotHB != hb {
		t.Errorf("heartbeat round trip: %+v != %+v", gotHB, hb)
	}

	// 1<<30 keeps the varint multi-byte while still fitting int on
	// 32-bit builds (the GOARCH=386 CI step vets tests too).
	reg := proto.RegisterReq{Node: "n3", Addr: "127.0.0.1:9999", Cores: 16, Jobs: []int{3, -9, 1 << 30}}
	var gotReg proto.RegisterReq
	trip(t, ca, cb, proto.TRegister, reg, &gotReg)
	if !reflect.DeepEqual(gotReg, reg) {
		t.Errorf("register round trip: %+v != %+v", gotReg, reg)
	}

	resp := proto.DynGetResp{JobID: 8, Granted: true, Reason: "ok", Hosts: []proto.HostSlice{
		{Node: "n1", Addr: "a1", Cores: 4}, {Node: "n2", Addr: "a2", Cores: -1},
	}}
	var gotResp proto.DynGetResp
	trip(t, ca, cb, proto.TDynGetResp, &resp, &gotResp)
	if !reflect.DeepEqual(gotResp, resp) {
		t.Errorf("dynget resp round trip: %+v != %+v", gotResp, resp)
	}

	spec := proto.JobSpec{Name: "F.1", User: "user06", Cores: 8, WallSecs: 1846, Script: "sleep:1s", Evolving: true}
	var gotSpec proto.JobSpec
	trip(t, ca, cb, proto.TQSub, spec, &gotSpec)
	if gotSpec != spec {
		t.Errorf("jobspec round trip: %+v != %+v", gotSpec, spec)
	}

	// Unregistered tags travel as literals, and a payload that is not
	// one of the package's structs rides as JSON inside the v2 frame.
	var gotStr string
	trip(t, ca, cb, proto.MsgType("custom.experimental"), "payload", &gotStr)
	if gotStr != "payload" {
		t.Errorf("literal-tag payload = %q", gotStr)
	}

	// Payload-less envelopes still refuse to decode.
	trip(t, ca, cb, proto.TSchedPull, nil, nil)
}

func TestV2EmptySlicesDecodeNil(t *testing.T) {
	ca, cb := handshakePair(t, proto.ModeV2)
	var got proto.DynGetResp
	trip(t, ca, cb, proto.TDynGetResp, proto.DynGetResp{JobID: 1, Hosts: []proto.HostSlice{}}, &got)
	if got.Hosts != nil {
		t.Errorf("empty host list decoded as %#v, want nil (JSON omitempty parity)", got.Hosts)
	}
	// The rule holds for lists without omitempty too, where v1 would
	// deliver an empty non-nil list: no receiver tells the two apart.
	var run proto.RunJobReq
	trip(t, ca, cb, proto.TRunJob, proto.RunJobReq{JobID: 1, Hosts: []proto.HostSlice{}}, &run)
	if run.Hosts != nil {
		t.Errorf("empty RunJobReq host list decoded as %#v, want nil", run.Hosts)
	}
}

func TestV2TypedNilPointerMatchesV1Null(t *testing.T) {
	ca, cb := handshakePair(t, proto.ModeV2)
	got := proto.HeartbeatReq{Node: "sentinel"}
	trip(t, ca, cb, proto.THeartbeat, (*proto.HeartbeatReq)(nil), &got)
	// v1 ships "null", which json-decodes as a no-op; v2 must match.
	if got.Node != "sentinel" {
		t.Errorf("nil-pointer payload mutated dst: %+v", got)
	}
}

func TestV2BinaryCodecMismatch(t *testing.T) {
	ca, cb := handshakePair(t, proto.ModeV2)
	sendErr := make(chan error, 1)
	go func() { sendErr <- ca.Send(proto.THeartbeat, &proto.HeartbeatReq{Node: "x"}) }()
	env, err := cb.Recv()
	if serr := <-sendErr; serr != nil {
		t.Fatal(serr)
	}
	if err != nil {
		t.Fatal(err)
	}
	var wrong proto.JobDoneReq
	if err := env.Decode(&wrong); err == nil {
		t.Error("decoding a heartbeat binary payload into JobDoneReq must error")
	}
	var right proto.HeartbeatReq
	if err := env.Decode(&right); err != nil || right.Node != "x" {
		t.Errorf("re-decode into the right struct = %+v, %v", right, err)
	}
}

func TestServerPinnedV1DowngradesV2Client(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := proto.NewConn(a), proto.NewConn(b)
	t.Cleanup(func() { _ = ca.Close(); _ = cb.Close() })
	done := make(chan error, 1)
	go func() { done <- cb.AcceptHandshake(proto.ModeV1) }()
	if err := ca.ClientHandshake(proto.ModeV2); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ca.Version() != 1 || cb.Version() != 1 {
		t.Fatalf("versions = %d/%d, want 1/1", ca.Version(), cb.Version())
	}
	var got proto.QDelReq
	trip(t, ca, cb, proto.TQDel, proto.QDelReq{JobID: 5}, &got)
	if got.JobID != 5 {
		t.Errorf("downgraded traffic: %+v", got)
	}
}

// TestV1ClientAgainstSniffingServer: a seed client that never
// handshakes must be served unchanged — the sniffed first byte belongs
// to its first frame.
func TestV1ClientAgainstSniffingServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type result struct {
		env *proto.Envelope
		ver int
		err error
	}
	res := make(chan result, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			res <- result{err: err}
			return
		}
		c := proto.NewConn(nc)
		defer c.Close()
		if err := c.AcceptHandshake(proto.ModeAuto); err != nil {
			res <- result{err: err}
			return
		}
		env, err := c.Recv()
		res <- result{env: env, ver: c.Version(), err: err}
	}()
	cli, err := proto.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Send(proto.TQDel, proto.QDelReq{JobID: 11}); err != nil {
		t.Fatal(err)
	}
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.ver != 1 {
		t.Errorf("sniffed version = %d, want 1", r.ver)
	}
	var req proto.QDelReq
	if err := r.env.Decode(&req); err != nil || req.JobID != 11 {
		t.Errorf("v1 frame after sniff = %+v, %v", req, err)
	}
}

// oldServer emulates a seed (pre-v2) daemon: it accepts and reads v1
// frames with no handshake, so the v2 magic parses as an oversized
// length prefix and the connection is dropped.
func oldServer(t *testing.T, ln net.Listener, accepts int) chan *proto.Envelope {
	t.Helper()
	envs := make(chan *proto.Envelope, accepts)
	go func() {
		for i := 0; i < accepts; i++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			c := proto.NewConn(nc)
			env, err := c.Recv()
			if err == nil {
				envs <- env
			}
			_ = c.Close()
		}
	}()
	return envs
}

func TestAutoDialFallsBackToOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	envs := oldServer(t, ln, 2) // magic-poisoned conn, then the v1 retry
	cli, err := proto.DialMode(ln.Addr().String(), proto.ModeAuto)
	if err != nil {
		t.Fatalf("auto dial against an old server: %v", err)
	}
	defer cli.Close()
	if cli.Version() != 1 {
		t.Fatalf("fallback version = %d, want 1", cli.Version())
	}
	if err := cli.Send(proto.TQDel, proto.QDelReq{JobID: 3}); err != nil {
		t.Fatal(err)
	}
	env := <-envs
	var req proto.QDelReq
	if err := env.Decode(&req); err != nil || req.JobID != 3 {
		t.Errorf("fallback frame = %+v, %v", req, err)
	}
}

func TestV2RequiredFailsOnOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_ = oldServer(t, ln, 1)
	if _, err := proto.DialMode(ln.Addr().String(), proto.ModeV2); err == nil {
		t.Fatal("ModeV2 dial against an old server must fail, not fall back")
	}
}

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want proto.Mode
		ok   bool
	}{
		{"", proto.ModeAuto, true}, {"auto", proto.ModeAuto, true},
		{"v1", proto.ModeV1, true}, {"1", proto.ModeV1, true},
		{"v2", proto.ModeV2, true}, {"2", proto.ModeV2, true},
		{"v3", proto.ModeAuto, false}, {"json", proto.ModeAuto, false},
	}
	for _, c := range cases {
		got, err := proto.ParseMode(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v", c.in, got, err)
		}
		if c.ok && !strings.Contains("auto v1 v2", got.String()) {
			t.Errorf("Mode(%d).String() = %q", got, got.String())
		}
	}
}

// TestConcurrentRequestsPairReplies: the pairing lock must keep each
// requester's reply with its own request. On the seed code wm and rm
// serialize Send and Recv separately, so two in-flight requests race
// for rm and routinely swap replies; this test fails there.
func TestConcurrentRequestsPairReplies(t *testing.T) {
	ca, cb := handshakePair(t, proto.ModeV1)
	go func() {
		for {
			env, err := cb.Recv()
			if err != nil {
				return
			}
			var req proto.QDelReq
			if err := env.Decode(&req); err != nil {
				return
			}
			if err := cb.Send(proto.TOK, proto.QSubResp{JobID: req.JobID}); err != nil {
				return
			}
		}
	}()
	const goroutines, per = 8, 32
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < per; i++ {
				id := g*1000 + i
				env, err := ca.Request(proto.TQDel, proto.QDelReq{JobID: id})
				if err != nil {
					errs <- err
					return
				}
				var resp proto.QSubResp
				if err := env.Decode(&resp); err != nil {
					errs <- err
					return
				}
				if resp.JobID != id {
					errs <- fmt.Errorf("goroutine %d received reply for request %d, want %d (crossed replies)", g, resp.JobID, id)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
