package proto

import (
	"io"
	"math"
	"net"
	"reflect"
	"testing"
)

// v2Frame returns the bytes a v2 Send puts on the wire for one message,
// length varint included.
func v2Frame(tb testing.TB, typ MsgType, payload any) []byte {
	tb.Helper()
	c, l := loopPair(V2)
	if err := c.Send(typ, payload); err != nil {
		tb.Fatal(err)
	}
	return l.Bytes()
}

// FuzzV2MalformedFrame is the v2 counterpart of FuzzConnMalformedFrame:
// after a real handshake, raw attacker bytes — zero-length frames,
// truncated tag tables, overlong length varints, bogus payload kinds,
// damaged fields of any binary codec — must produce a clean error from
// Recv, or from Decode into the struct the tag names, never a panic, a
// hang, or a length-driven allocation.
func FuzzV2MalformedFrame(f *testing.F) {
	f.Add([]byte{})                                   // immediate EOF
	f.Add([]byte{0x00})                               // zero-length frame
	f.Add([]byte{0x01, 0x0a})                         // tag with no payload kind
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})       // unterminated length varint
	f.Add([]byte{0x81, 0x80, 0x80, 0x09})             // declared length over maxFrame
	f.Add([]byte{0x04, 0x00, 0x0a, 'a', 'b'})         // truncated literal tag table entry
	f.Add([]byte{0x02, 27, 0x00})                     // unknown tag id
	f.Add([]byte{0x03, 0x0a, 0x02, 0x01})             // short binary payload
	f.Add([]byte{0x05, 0x07, 0x02, 0x02, 0x0e, 0x00}) // valid binary jobdone
	samples := samplePayloads()
	for _, s := range samples {
		frame := v2Frame(f, s.typ, s.val)
		f.Add(frame)                // a valid frame of every codec
		f.Add(frame[:len(frame)-1]) // and one the sender cut short
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		peer, ours := net.Pipe()
		go func() {
			hello := []byte{0xF2, 'P', 'B', 0x02}
			if _, err := peer.Write(hello); err != nil {
				return
			}
			var reply [4]byte
			if _, err := io.ReadFull(peer, reply[:]); err != nil {
				return
			}
			_, _ = peer.Write(frame)
			_ = peer.Close()
		}()
		c := NewConn(ours)
		defer c.Close()
		if err := c.AcceptHandshake(ModeAuto); err != nil {
			t.Fatalf("handshake: %v", err)
		}
		if c.Version() != 2 {
			t.Fatalf("negotiated %d, want 2", c.Version())
		}
		env, err := c.Recv()
		if err == nil && env == nil {
			t.Fatal("Recv returned neither an envelope nor an error")
		}
		if err != nil {
			return
		}
		for _, s := range samples {
			if s.typ == env.Type {
				_ = env.Decode(s.newPayload()) // any error is fine; a panic is not
			}
		}
	})
}

// FuzzCodecDifferential proves the codecs' equivalence claim: every
// payload struct must decode to the identical value whether it
// travelled through the v1 JSON framing or the v2 binary framing —
// including invalid-UTF-8 coercion, negative and 64-bit ints, floats
// and omitempty parity. Lists are built nil when empty: that is what
// v2 decodes a zero-length list to, where v1 tells `[]` from `null`
// for the fields without omitempty (no receiver does).
func FuzzCodecDifferential(f *testing.F) {
	f.Add("mom-001", int64(7), int64(1723), 42, "", 8, 2, 4, int64(30), true, "busy", "127.0.0.1:15002", 16, uint8(2), uint8(3), "user06", 0.25, uint64(42))
	f.Add("\xff\xfe", int64(-1), int64(0), -9, "exit 1 \xed\xa0\x80", 0, 0, 0, int64(0), false, "", "", -1, uint8(0), uint8(0), "", -1e300, uint64(0))
	// 1<<30, not 1<<40: the jobID argument is a plain int and the
	// GOARCH=386 CI step vets this file on a 32-bit int.
	f.Add("n", int64(1)<<62, int64(-5), 1<<30, "é", -3, 1, 1, int64(-60), true, "r \x00 s", "addr", 0, uint8(9), uint8(1), "u\xc0", 1e-320, uint64(1)<<63)
	f.Fuzz(func(t *testing.T, node string, seq, sent int64, jobID int, errStr string,
		cores, nnodes, ppn int, timeoutSecs int64, granted bool, reason, addr string,
		hCores int, nHosts, nJobs uint8, user string, wait float64, serial uint64) {
		if math.IsNaN(wait) || math.IsInf(wait, 0) {
			t.Skip("encoding/json refuses NaN and Inf, so v1 cannot carry them")
		}
		var hosts []HostSlice
		for i := 0; i < int(nHosts)%4; i++ {
			hosts = append(hosts, HostSlice{Node: node, Addr: addr, Cores: hCores + i})
		}
		var jobs []int
		var nodes []NodeStatus
		var sjobs []SchedJob
		var dyn []SchedDynReq
		var actions []SchedAction
		var rows []JobStatus
		for i := 0; i < int(nJobs)%5; i++ {
			jobs = append(jobs, jobID+i)
			nodes = append(nodes, NodeStatus{Name: node, Cores: cores, Used: hCores, State: reason})
			sjobs = append(sjobs, SchedJob{ID: jobID + i, Name: errStr, User: user, Group: node, State: reason,
				Cores: cores, DynCores: hCores, WallSecs: timeoutSecs, SubmitMS: sent, StartMS: seq, SysPrio: -seq,
				Evolving: granted, Backfilled: !granted})
			dyn = append(dyn, SchedDynReq{JobID: jobID + i, Cores: cores, Nodes: nnodes, PPN: ppn, Seq: i, DeadlineMS: sent})
			actions = append(actions, SchedAction{Kind: reason, JobID: jobID + i, Reason: errStr})
			rows = append(rows, JobStatus{ID: jobID + i, Name: errStr, User: user, State: reason,
				Cores: cores, DynCores: hCores, WaitSecs: wait, Hosts: hosts})
		}
		spec := JobSpec{Name: errStr, User: user, Group: node, Account: reason, Cores: cores, Nodes: nnodes, PPN: ppn,
			WallSecs: timeoutSecs, Script: addr, Evolving: granted, SystemPriority: seq}
		payloads := []any{
			&HeartbeatReq{Node: node, Seq: seq, SentMS: sent},
			&JobDoneReq{JobID: jobID, Error: errStr},
			&DynGetReq{JobID: jobID, Cores: cores, Nodes: nnodes, PPN: ppn, TimeoutSecs: timeoutSecs},
			&DynGetResp{JobID: jobID, Granted: granted, Reason: reason, Hosts: hosts},
			&RegisterReq{Node: node, Addr: addr, Cores: cores, Jobs: jobs},
			&SchedState{NowMS: sent, Nodes: nodes, Queued: sjobs, Active: sjobs, Dyn: dyn, Serial: serial},
			&SchedCommit{Serial: serial, Actions: actions},
			&SchedCommitResp{Applied: cores, Skipped: hCores},
			&RunJobReq{JobID: jobID, Spec: spec, Hosts: hosts},
			&spec,
			&JoinReq{JobID: jobID, Dynamic: granted, Hosts: hosts},
			&QSubResp{JobID: jobID, Error: errStr},
			&QStatResp{Jobs: rows, Nodes: nodes},
			&QDelReq{JobID: jobID},
			&KillJobReq{JobID: jobID},
			&DynFreeReq{JobID: jobID, Hosts: hosts},
			&TMDynGetReq{JobID: jobID, Cores: cores, Nodes: nnodes, PPN: ppn, TimeoutSecs: timeoutSecs},
			&TMDynFreeReq{JobID: jobID, Hosts: hosts},
			&TMDoneReq{JobID: jobID, Error: errStr},
			&TMResp{OK: granted, Reason: reason, Hosts: hosts},
			&ErrorResp{Error: errStr},
			&SchedDelta{NowMS: sent, Nodes: nodes, Jobs: sjobs, Tail: sjobs, Dyn: dyn, Serial: serial},
		}
		// The sample table is complete (TestEveryPayloadHasBinaryCodec);
		// holding this list to its length keeps the differential complete.
		if want := len(samplePayloads()); len(payloads) != want {
			t.Fatalf("differential covers %d payload structs, the package has %d", len(payloads), want)
		}
		for _, p := range payloads {
			v1, v2 := tripOnce(t, V1, p), tripOnce(t, V2, p)
			if !reflect.DeepEqual(v1, v2) {
				t.Fatalf("differential mismatch for %T:\n v1: %#v\n v2: %#v", p, v1, v2)
			}
		}
	})
}

// tripOnce carries payload (a *T) through Send, Recv and Decode at the
// given wire version and returns the decoded *T.
func tripOnce(t *testing.T, ver uint32, payload any) any {
	t.Helper()
	c, _ := loopPair(ver)
	if err := c.Send(TOK, payload); err != nil {
		t.Fatalf("v%d send %T: %v", ver, payload, err)
	}
	env, err := c.Recv()
	if err != nil {
		t.Fatalf("v%d recv %T: %v", ver, payload, err)
	}
	dst := reflect.New(reflect.TypeOf(payload).Elem()).Interface()
	if err := env.Decode(dst); err != nil {
		t.Fatalf("v%d decode %T: %v", ver, payload, err)
	}
	return dst
}

// FuzzConnFrameStream cuts a stream of frames — v2 behind a client's
// hello, or v1 behind the first byte the acceptor sniffs — into writes
// at arbitrary byte boundaries, inside the hello and inside a length
// prefix included. The acceptor must decode the frames the sender sent,
// in order, each to what it decodes to in one piece, and then meet the
// stream's tail — garbage, a cut frame or nothing — with a clean error.
func FuzzConnFrameStream(f *testing.F) {
	f.Add(true, []byte{0, 5, 21, 1}, []byte{1}, []byte{})
	f.Add(false, []byte{0, 5, 21, 1}, []byte{1}, []byte{})
	f.Add(true, []byte{2, 2, 2}, []byte{3, 0, 7, 200}, []byte{0xff, 0xff})
	f.Add(false, []byte{13, 8}, []byte{2, 5}, []byte{0x00, 0x00, 0x00})
	f.Add(true, []byte{5}, []byte{}, []byte{0x81})
	f.Add(false, []byte{}, []byte{1, 1}, []byte{handshakeMagic[0], handshakeMagic[1], handshakeMagic[2], V2, 0x03})
	samples := samplePayloads()
	f.Fuzz(func(t *testing.T, v2 bool, picks, cuts, tail []byte) {
		ver := uint32(V1)
		if v2 {
			ver = V2
		}
		if len(picks) > 16 {
			picks = picks[:16]
		}
		enc, l := loopPair(ver)
		var stream []byte
		if v2 {
			stream = []byte{handshakeMagic[0], handshakeMagic[1], handshakeMagic[2], V2}
		}
		var sent []payloadSample
		for _, p := range picks {
			s := samples[int(p)%len(samples)]
			if err := enc.Send(s.typ, s.val); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, s)
		}
		stream = append(append(stream, l.Bytes()...), tail...)

		peer, ours := net.Pipe()
		go func() {
			// The acceptor's reply is read beside the writes, which it
			// may answer before it has read them all, and before the
			// close, which would fail its write.
			replied := make(chan struct{})
			go func() {
				var reply [4]byte
				_, _ = io.ReadFull(peer, reply[:])
				close(replied)
				_, _ = io.Copy(io.Discard, peer)
			}()
			defer func() {
				if v2 {
					<-replied
				}
				_ = peer.Close()
			}()
			rest := stream
			for i := 0; len(rest) > 0; i++ {
				n := len(rest)
				if i < len(cuts) {
					n = min(n, 1+int(cuts[i])%32)
				}
				if _, err := peer.Write(rest[:n]); err != nil {
					return
				}
				rest = rest[n:]
			}
		}()
		c := NewConn(ours)
		defer c.Close()
		err := c.AcceptHandshake(ModeAuto)
		if !v2 && len(sent) == 0 {
			// The tail alone, which may look like a hello: it must
			// fail cleanly wherever it fails.
			for err == nil {
				_, err = c.Recv()
			}
			return
		}
		if err != nil {
			t.Fatalf("handshake: %v", err)
		}
		if c.Version() != int(ver) {
			t.Fatalf("negotiated v%d, want v%d", c.Version(), ver)
		}
		for i, s := range sent {
			env, err := c.Recv()
			if err != nil {
				t.Fatalf("frame %d (%s): %v", i, s.typ, err)
			}
			if env.Type != s.typ {
				t.Fatalf("frame %d is %s, want %s", i, env.Type, s.typ)
			}
			got := s.newPayload()
			if err := env.Decode(got); err != nil {
				t.Fatalf("frame %d (%s): decode: %v", i, s.typ, err)
			}
			if want := tripOnce(t, ver, s.val); !reflect.DeepEqual(got, want) {
				t.Fatalf("frame %d (%s) decoded from the cut stream differs:\n got  %#v\n want %#v", i, s.typ, got, want)
			}
		}
		// Whatever the tail holds, the reads end in an error, not a
		// panic or a hang: every frame consumes bytes and the writer
		// closes its end.
		for {
			env, err := c.Recv()
			if err != nil {
				return
			}
			if env == nil {
				t.Fatal("Recv returned neither an envelope nor an error")
			}
		}
	})
}
