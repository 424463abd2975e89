package proto

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchState builds a moderately sized scheduler snapshot — the
// largest message class on the wire during live operation.
func benchState() SchedState {
	st := SchedState{NowMS: 123456, Serial: 42}
	for i := 0; i < 16; i++ {
		st.Nodes = append(st.Nodes, NodeStatus{
			Name: "node07", Cores: 8, Used: 4, State: "up",
		})
	}
	for i := 0; i < 32; i++ {
		st.Queued = append(st.Queued, SchedJob{
			ID: i, Name: "L.12", User: "user08", Group: "grp_user08",
			State: "queued", Cores: 15, WallSecs: 366, SubmitMS: int64(i) * 30000,
		})
	}
	for i := 0; i < 8; i++ {
		st.Dyn = append(st.Dyn, SchedDynReq{JobID: i, Cores: 4, Seq: i})
	}
	return st
}

// BenchmarkConnRoundTrip measures one request/echo cycle over an
// in-memory pipe: Send encode + frame write, Recv frame read + decode,
// both directions (BENCH_campaign.json: proto roundtrip).
func BenchmarkConnRoundTrip(b *testing.B) {
	a, p := net.Pipe()
	ca, cb := NewConn(a), NewConn(p)
	defer ca.Close()
	defer cb.Close()
	go func() {
		for {
			env, err := cb.Recv()
			if err != nil {
				return
			}
			if err := cb.Send(env.Type, env.Payload); err != nil {
				return
			}
		}
	}()
	st := benchState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := ca.Request(TSchedState, st)
		if err != nil {
			b.Fatal(err)
		}
		if env.Type != TSchedState {
			b.Fatalf("echo type %s", env.Type)
		}
	}
}

// discardConn is a net.Conn that swallows writes, isolating the Send
// encode path from socket costs.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestSendAllocsRegression guards the pooled single-pass Send path:
// the seed codec spent 5 allocations per call (payload marshal,
// envelope marshal, growth copies); the pooled path must stay at ≤ 2
// amortized. A regression here silently reintroduces encode churn on
// every wire message of the live daemons.
func TestSendAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	a, p := net.Pipe()
	defer a.Close()
	defer p.Close()
	c := NewConn(discardConn{a})
	st := benchState()
	c.Send(TSchedState, st) // warm the pools
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(TSchedState, st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Send allocates %.1f times per call, want <= 2 (seed codec: 5)", allocs)
	}
}

// TestRecvAllocsRegression guards the pooled Recv frame buffer: only
// the envelope, its payload copy, and decode internals may allocate —
// the frame read buffer itself must come from the pool.
func TestRecvAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	st := benchState()
	var frame bytes.Buffer
	fc := NewConn(discardRecorder{Buffer: &frame})
	if err := fc.Send(TSchedState, st); err != nil {
		t.Fatal(err)
	}
	r := &replayConn{data: frame.Bytes()}
	c := NewConn(r)
	if _, err := c.Recv(); err != nil { // warm the pool
		t.Fatal(err)
	}
	r.off = 0
	allocs := testing.AllocsPerRun(200, func() {
		r.off = 0
		env, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if env.Type != TSchedState {
			t.Fatalf("type %s", env.Type)
		}
	})
	// envelope + payload copy + unmarshal scratch sit at 10 today; the
	// seed path allocated a fresh frame buffer for every message on
	// top of that. The bound only needs to catch the buffer coming
	// back (or decode-path churn), not pin the stdlib's exact count.
	if allocs > 10 {
		t.Errorf("Recv allocates %.1f times per call, want <= 10", allocs)
	}
}

// readCounter counts the reads a Conn makes of its socket.
type readCounter struct {
	net.Conn
	reads int
}

func (r *readCounter) Read(p []byte) (int, error) {
	r.reads++
	return r.Conn.Read(p)
}

// TestRecvReadsOncePerBurst: small frames that arrive together — a
// mom's completions, a server's dispatches — are read from the socket
// in one read, not one for each length prefix (a v2 length used to take
// a read per byte) and another for each body.
func TestRecvReadsOncePerBurst(t *testing.T) {
	const n = 5
	for _, ver := range []uint32{V1, V2} {
		t.Run(fmt.Sprintf("v%d", ver), func(t *testing.T) {
			enc, l := loopPair(ver)
			for i := range n {
				if err := enc.Send(TJobDone, &JobDoneReq{JobID: i + 1}); err != nil {
					t.Fatal(err)
				}
			}
			burst := l.Bytes()
			if len(burst) > readBufSize {
				t.Fatalf("a burst of %d bytes does not fit the %d-byte read buffer", len(burst), readBufSize)
			}
			peer, ours := net.Pipe()
			defer peer.Close()
			rc := &readCounter{Conn: ours}
			c := NewConn(rc)
			defer c.Close()
			c.ver.Store(ver)
			go func() { _, _ = peer.Write(burst) }()
			for i := range n {
				env, err := c.Recv()
				if err != nil {
					t.Fatal(err)
				}
				var got JobDoneReq
				if err := env.Decode(&got); err != nil || env.Type != TJobDone || got.JobID != i+1 {
					t.Fatalf("frame %d: %s %+v, %v", i, env.Type, got, err)
				}
			}
			if rc.reads != 1 {
				t.Errorf("%d frames written at once took %d reads, want 1", n, rc.reads)
			}
		})
	}
}

// discardRecorder captures Send frames for replay.
type discardRecorder struct {
	net.Conn
	Buffer *bytes.Buffer
}

func (d discardRecorder) Write(p []byte) (int, error) { return d.Buffer.Write(p) }

// replayConn replays one captured frame per rewind.
type replayConn struct {
	net.Conn
	data []byte
	off  int
}

func (r *replayConn) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *replayConn) SetReadDeadline(time.Time) error { return nil }

// BenchmarkConnSend measures the encode + frame path alone.
func BenchmarkConnSend(b *testing.B) {
	a, p := net.Pipe()
	defer a.Close()
	defer p.Close()
	c := NewConn(discardConn{a})
	st := benchState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(TSchedState, st); err != nil {
			b.Fatal(err)
		}
	}
}

// v2BenchPair returns an in-memory pair pinned to the v2 framing
// (version forced directly; the handshake is covered by the
// integration tests).
func v2BenchPair() (*Conn, *Conn, func()) {
	a, p := net.Pipe()
	ca, cb := NewConn(a), NewConn(p)
	ca.ver.Store(V2)
	cb.ver.Store(V2)
	return ca, cb, func() { ca.Close(); cb.Close() }
}

// BenchmarkConnRoundTripV2 measures one request/echo cycle of a hot
// mom-link struct over the binary codec — the per-message cost the
// 10k-mom soak multiplies out (BENCH_proto.json: v2 roundtrip).
func BenchmarkConnRoundTripV2(b *testing.B) {
	ca, cb, stop := v2BenchPair()
	defer stop()
	go func() {
		var req JobDoneReq
		for {
			env, err := cb.Recv()
			if err != nil {
				return
			}
			req = JobDoneReq{}
			if err := env.Decode(&req); err != nil {
				return
			}
			if err := cb.Send(TJobDone, &req); err != nil {
				return
			}
		}
	}()
	req := JobDoneReq{JobID: 7}
	var resp JobDoneReq
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ca.Send(TJobDone, &req); err != nil {
			b.Fatal(err)
		}
		env, err := ca.Recv()
		if err != nil {
			b.Fatal(err)
		}
		resp = JobDoneReq{}
		if err := env.Decode(&resp); err != nil {
			b.Fatal(err)
		}
		if resp.JobID != 7 {
			b.Fatalf("echo = %+v", resp)
		}
	}
}

// BenchmarkConnSendV2 measures the binary encode + frame path alone.
func BenchmarkConnSendV2(b *testing.B) {
	a, p := net.Pipe()
	defer a.Close()
	defer p.Close()
	c := NewConn(discardConn{a})
	c.ver.Store(V2)
	req := HeartbeatReq{Node: "mom-00042", Seq: 1, SentMS: 1723}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seq++
		if err := c.Send(THeartbeat, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSendAllocsV2Regression: the binary encode of a hot struct must
// be allocation-free in steady state — pooled frame buffer, varint
// fields, no interface-boxing copies when the caller passes a pointer.
func TestSendAllocsV2Regression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	a, p := net.Pipe()
	defer a.Close()
	defer p.Close()
	c := NewConn(discardConn{a})
	c.ver.Store(V2)
	req := HeartbeatReq{Node: "mom-00042", Seq: 9, SentMS: 1723}
	if err := c.Send(THeartbeat, &req); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(THeartbeat, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("v2 Send allocates %.1f times per call, want 0", allocs)
	}
}

// TestRoundTripV2AllocsRegression pins the acceptance criterion: a
// full v2 round trip (Send + echo Recv/Decode/Send on the peer + Recv
// + Decode locally, across both goroutines) stays at ≤ 4 allocations —
// the envelope and binary-payload copy on each side — versus 22 for
// the same cycle on the v1 JSON codec.
func TestRoundTripV2AllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	ca, cb, stop := v2BenchPair()
	defer stop()
	go func() {
		var req JobDoneReq
		for {
			env, err := cb.Recv()
			if err != nil {
				return
			}
			req = JobDoneReq{}
			if err := env.Decode(&req); err != nil {
				return
			}
			if err := cb.Send(TJobDone, &req); err != nil {
				return
			}
		}
	}()
	req := JobDoneReq{JobID: 7}
	var resp JobDoneReq
	roundTrip := func() {
		if err := ca.Send(TJobDone, &req); err != nil {
			t.Fatal(err)
		}
		env, err := ca.Recv()
		if err != nil {
			t.Fatal(err)
		}
		resp = JobDoneReq{}
		if err := env.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.JobID != 7 {
			t.Fatalf("echo = %+v", resp)
		}
	}
	roundTrip() // warm the pools
	allocs := testing.AllocsPerRun(200, roundTrip)
	if allocs > 4 {
		t.Errorf("v2 round trip allocates %.1f times, want <= 4 (v1: ~22)", allocs)
	}
}

// deepState builds a snapshot with n queued jobs of the shape the live
// server produces (100 users, a group per user, one state).
func deepState(n int) *SchedState {
	st := &SchedState{NowMS: 1_700_000_000_000, Serial: 42}
	for i := 0; i < 64; i++ {
		st.Nodes = append(st.Nodes, NodeStatus{Name: fmt.Sprintf("node%02d", i), Cores: 8, Used: 8, State: "up"})
	}
	st.Queued = make([]SchedJob, n)
	for i := range st.Queued {
		u := i % 100
		st.Queued[i] = SchedJob{
			ID: i + 1, Name: fmt.Sprintf("L.%d", i), User: fmt.Sprintf("user%02d", u), Group: fmt.Sprintf("grp_user%02d", u),
			State: "queued", Cores: 1 + i%8, WallSecs: int64(60 + i%3000), SubmitMS: 1_700_000_000_000 + int64(i),
		}
	}
	return st
}

// loopConn is an in-memory connection for one goroutine: Send appends
// to the buffer, Recv consumes it.
type loopConn struct {
	net.Conn
	bytes.Buffer
}

func (l *loopConn) Write(p []byte) (int, error)     { return l.Buffer.Write(p) }
func (l *loopConn) Read(p []byte) (int, error)      { return l.Buffer.Read(p) }
func (l *loopConn) SetReadDeadline(time.Time) error { return nil }

func loopPair(ver uint32) (*Conn, *loopConn) {
	l := &loopConn{}
	c := NewConn(l)
	c.ver.Store(ver)
	return c, l
}

// TestSchedStateFrameSize: a 100 000-job snapshot is past maxFrame as
// JSON. v1 must refuse it at the sender with an explicit error and
// leave the connection usable (before the fix it wrote the frame and
// the receiver dropped the link); v2 must carry it well inside the
// limit.
func TestSchedStateFrameSize(t *testing.T) {
	st := deepState(100_000)

	c1, l1 := loopPair(V1)
	err := c1.Send(TSchedState, st)
	if err == nil || !strings.Contains(err.Error(), "frame too large") {
		t.Fatalf("v1 Send of a 100k-job snapshot = %v, want a frame-too-large error", err)
	}
	if l1.Len() != 0 {
		t.Fatalf("v1 Send wrote %d bytes of a frame it refused", l1.Len())
	}
	if err := c1.Send(TOK, nil); err != nil {
		t.Fatal(err)
	}
	if env, err := c1.Recv(); err != nil || env.Type != TOK {
		t.Fatalf("v1 connection after the refused frame: %v, %v", env, err)
	}

	c2, l2 := loopPair(V2)
	if err := c2.Send(TSchedState, st); err != nil {
		t.Fatalf("v2 Send of a 100k-job snapshot: %v", err)
	}
	if n := l2.Len(); n > maxFrame/2 {
		t.Errorf("v2 frame is %d bytes, want well inside the %d-byte limit", n, maxFrame)
	}
	env, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var got SchedState
	if err := env.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, st) {
		t.Error("100k-job snapshot did not round-trip under v2")
	}
}

// TestSendAllocsV2DispatchRegression: the dispatch messages of the
// drain path — RunJob to the mother superior, Join to her sisters —
// encode without allocating, as the mom-link structs already did.
func TestSendAllocsV2DispatchRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	c := NewConn(discardConn{})
	c.ver.Store(V2)
	hosts := []HostSlice{{Node: "n1", Addr: "127.0.0.1:15002", Cores: 4}, {Node: "n2", Addr: "127.0.0.1:15003", Cores: 4}}
	run := &RunJobReq{JobID: 9, Spec: JobSpec{Name: "L.12", User: "user08", Cores: 8, WallSecs: 366, Script: "go:noop"}, Hosts: hosts}
	join := &JoinReq{JobID: 9, Hosts: hosts}
	send := func() {
		if err := c.Send(TRunJob, run); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(TJoin, join); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm the pool
	if allocs := testing.AllocsPerRun(200, send); allocs > 0 {
		t.Errorf("v2 Send of RunJobReq + JoinReq allocates %.1f times, want 0", allocs)
	}
}

// TestSchedStateDecodeAllocsRegression bounds what the external
// scheduler pays per pulled job: the job's name, and nothing for the
// state, user and group it shares with other jobs of the snapshot.
func TestSchedStateDecodeAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	const jobs = 8000
	var buf bytes.Buffer
	appendBinary(&buf, deepState(jobs))
	bin := buf.Bytes()[1:]
	var st SchedState
	allocs := testing.AllocsPerRun(5, func() {
		if err := decodeBinary(bin, &st); err != nil {
			t.Fatal(err)
		}
	})
	// One name per job, 64 node names, 200 users and groups, the lists
	// and the intern table's buckets.
	if perJob := allocs / jobs; perJob > 1.1 {
		t.Errorf("SchedState decode allocates %.2f times per job (%.0f in all), want <= 1.1", perJob, allocs)
	}
}

// BenchmarkSchedStateRoundTrip measures one sched.pull reply — Send,
// Recv, Decode, no socket — under both codecs at the two queue depths
// the repository's benchmark drains (bench/: drain_mauid 8k,
// drain_deep 30k). wire_B/op is the frame size.
func BenchmarkSchedStateRoundTrip(b *testing.B) {
	for _, depth := range []int{8000, 30000} {
		st := deepState(depth)
		for _, ver := range []uint32{V1, V2} {
			b.Run(fmt.Sprintf("v%d/%dk", ver, depth/1000), func(b *testing.B) {
				c, l := loopPair(ver)
				var got SchedState
				wire := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Send(TSchedState, st); err != nil {
						b.Fatal(err)
					}
					wire = l.Len()
					env, err := c.Recv()
					if err != nil {
						b.Fatal(err)
					}
					if err := env.Decode(&got); err != nil {
						b.Fatal(err)
					}
					if len(got.Queued) != depth {
						b.Fatalf("decoded %d jobs", len(got.Queued))
					}
				}
				b.ReportMetric(float64(wire), "wire_B/op")
			})
		}
	}
}
