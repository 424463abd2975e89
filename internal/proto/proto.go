// Package proto defines the wire protocol of the live batch system:
// length-prefixed JSON messages over TCP, used on three links that
// mirror the Torque/Maui architecture (Fig. 2 of the paper):
//
//   - client ↔ server (qsub/qstat/qdel)
//   - mom ↔ server (registration, job start, dynamic allocation)
//   - mom ↔ mom (join / dyn_join / dyn_disjoin host-set coordination)
//   - scheduler ↔ server (workload pull, decision commit) when the
//     Maui analog runs as a separate daemon
//
// Every message travels inside an Envelope carrying its type tag; the
// payload is the JSON encoding of the corresponding struct.
package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MsgType tags an envelope's payload.
type MsgType string

// Message types. The trailing `dispatch:<role>` annotation names the
// dispatch switch that consumes each message (schedlint's
// protoexhaustive analyzer keeps the two in lockstep); `dispatch:reply`
// marks responses read inline on the requesting connection.
const (
	// Client → server.
	TQSub  MsgType = "qsub"  // dispatch:server.conn
	TQStat MsgType = "qstat" // dispatch:server.conn
	TQDel  MsgType = "qdel"  // dispatch:server.conn

	// Server → client.
	TQSubResp  MsgType = "qsub.resp"  // dispatch:reply
	TQStatResp MsgType = "qstat.resp" // dispatch:reply

	// Mom → server.
	TRegister  MsgType = "mom.register"  // dispatch:server.conn
	TJobDone   MsgType = "mom.jobdone"   // dispatch:server.mom
	TDynGet    MsgType = "mom.dynget"    // dispatch:server.mom — forwarded tm_dynget (mother superior only)
	TDynFree   MsgType = "mom.dynfree"   // dispatch:server.mom — forwarded tm_dynfree
	THeartbeat MsgType = "mom.heartbeat" // dispatch:server.mom — liveness beacon on the persistent link

	// Server → mom.
	TRunJob     MsgType = "srv.runjob"      // dispatch:mom.server
	TKillJob    MsgType = "srv.killjob"     // dispatch:mom.server
	TDynGetResp MsgType = "srv.dynget.resp" // dispatch:mom.server

	// Mom ↔ mom.
	TJoin       MsgType = "mom.join"       // dispatch:mom.conn,mom.sister
	TDynJoin    MsgType = "mom.dynjoin"    // dispatch:mom.conn,mom.sister
	TDynDisjoin MsgType = "mom.dyndisjoin" // dispatch:mom.conn,mom.sister

	// App ↔ mom (the TM interface).
	TTMDynGet  MsgType = "tm.dynget"  // dispatch:mom.conn
	TTMDynFree MsgType = "tm.dynfree" // dispatch:mom.conn
	TTMDone    MsgType = "tm.done"    // dispatch:mom.conn
	TTMResp    MsgType = "tm.resp"    // dispatch:reply

	// Scheduler ↔ server (external Maui daemon).
	TSchedPull   MsgType = "sched.pull"   // dispatch:server.conn,server.sched
	TSchedState  MsgType = "sched.state"  // dispatch:reply — a link's first pull: the full snapshot
	TSchedDelta  MsgType = "sched.delta"  // dispatch:reply — every later pull on the same link
	TSchedCommit MsgType = "sched.commit" // dispatch:server.conn,server.sched

	// Generic replies.
	TOK    MsgType = "ok"    // dispatch:reply
	TError MsgType = "error" // dispatch:reply
)

// Envelope frames every message.
type Envelope struct {
	Type    MsgType         `json:"type"`
	Payload json.RawMessage `json:"payload,omitempty"`

	// bin holds a v2 binary payload (codec id + fields); nil when the
	// payload travelled as JSON.
	bin []byte
}

// maxFrame bounds a frame to keep a corrupted peer from triggering a
// huge allocation. Send refuses a larger frame before writing any of
// it, so the connection stays usable; Recv refuses one by its declared
// length.
const maxFrame = 16 << 20

func errFrameTooLarge(n uint64) error {
	return fmt.Errorf("proto: frame too large: %d bytes exceeds the %d-byte limit", n, maxFrame)
}

// Conn is a framed connection, safe for one reader and one writer
// goroutine concurrently (writes are additionally serialized so
// multiple goroutines may send, and Request pairs its send with its
// reply so multiple goroutines may issue requests). A Conn speaks the
// v1 JSON framing until a handshake (ClientHandshake/AcceptHandshake)
// negotiates the v2 binary framing; Version reports the result.
type Conn struct {
	c  net.Conn
	r  *bufio.Reader // guarded by rm: every read of c goes through it
	wm sync.Mutex    // serializes frame writes
	rm sync.Mutex    // serializes frame reads
	qm sync.Mutex    // serializes Request send→recv pairs

	ver atomic.Uint32 // negotiated wire version: 0/1 = v1 JSON, 2 = binary

	// Deadline state is atomic so SetReadTimeout can unstick a reader
	// already blocked inside Recv (net.Conn deadlines are safe to set
	// concurrently with a blocked Read) instead of queueing on rm
	// behind it.
	readT      atomic.Int64 // per-Recv deadline in ns, 0 = none
	readArmed  atomic.Bool  // the socket currently carries a read deadline
	writeT     atomic.Int64 // per-Send deadline in ns, 0 = none
	writeArmed atomic.Bool  // the socket currently carries a write deadline

	scratch [4]byte // guarded by rm: the v1 length header or the v2 hello, so neither escapes
}

// readBufSize is the read buffer of a Conn: room for a burst of small
// frames in one read, small because a process holds a buffer per
// connection end, and bufio reads a larger body straight into its
// destination.
const readBufSize = 256

// NewConn wraps a net.Conn.
func NewConn(c net.Conn) *Conn { return &Conn{c: c, r: bufio.NewReaderSize(c, readBufSize)} }

// Dial connects to addr and wraps the connection speaking v1. Use
// DialMode to negotiate the v2 codec.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// Version reports the negotiated wire version (1 or 2). Connections
// that never ran a handshake are v1.
func (c *Conn) Version() int {
	if c.ver.Load() == V2 {
		return V2
	}
	return V1
}

// SetReadTimeout arms a deadline for every subsequent Recv: a peer
// that dribbles bytes (or goes silent mid-frame) errors the read out
// instead of pinning the calling goroutine forever. Zero disables the
// deadline again. Safe to call concurrently with Recv; arming a
// timeout also applies it to the socket immediately, so it unsticks a
// reader that is already blocked.
func (c *Conn) SetReadTimeout(d time.Duration) {
	c.readT.Store(int64(d))
	if d > 0 {
		//lint:wallclock socket deadlines are genuine wall-clock protocol timeouts
		if c.c.SetReadDeadline(time.Now().Add(d)) == nil {
			c.readArmed.Store(true)
		}
	}
	// d == 0: the deadline (if any) is cleared by the next Recv, which
	// sees readT == 0 with readArmed still set. Clearing here instead
	// could race a concurrent Recv arming its own deadline.
}

// SetWriteTimeout arms a deadline for every subsequent Send, bounding
// how long a full peer socket buffer can block a writer. Zero disables
// it. Safe to call concurrently with Send; like SetReadTimeout it
// applies the deadline immediately, unsticking a blocked writer.
func (c *Conn) SetWriteTimeout(d time.Duration) {
	c.writeT.Store(int64(d))
	if d > 0 {
		//lint:wallclock socket deadlines are genuine wall-clock protocol timeouts
		if c.c.SetWriteDeadline(time.Now().Add(d)) == nil {
			c.writeArmed.Store(true)
		}
	}
}

// armDeadline applies one Recv/Send deadline, or clears a previously
// armed one when the timeout has been reset to zero. Unlike the seed
// version it propagates SetDeadline failures — flipping the armed
// state on a failed syscall either leaves a stale deadline poisoning
// every later call (failed clear) or records a deadline that never hit
// the socket (failed arm).
//
//lint:wallclock socket deadlines are genuine wall-clock protocol timeouts
func armDeadline(set func(time.Time) error, t *atomic.Int64, armed *atomic.Bool) error {
	switch d := time.Duration(t.Load()); {
	case d > 0:
		if err := set(time.Now().Add(d)); err != nil {
			return fmt.Errorf("proto: arm deadline: %w", err)
		}
		armed.Store(true)
	case armed.Load():
		if err := set(time.Time{}); err != nil {
			return fmt.Errorf("proto: clear deadline: %w", err)
		}
		armed.Store(false)
	}
	return nil
}

// RemoteAddr exposes the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// sendBuf is the pooled per-Send scratch: one buffer holding the
// complete frame (length prefix + envelope) and a JSON encoder bound
// to it, so the payload is encoded exactly once, directly in place.
type sendBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var sendPool = sync.Pool{New: func() any {
	b := &sendBuf{}
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// pooledBufLimit caps the buffer size retained by the send/recv pools;
// pathologically large frames (up to maxFrame) are not worth pinning.
const pooledBufLimit = 1 << 16

// writeTag appends the JSON string encoding of a message type. Plain
// ASCII tags — every tag this package defines — take the direct path;
// anything needing escaping or UTF-8 coercion falls back to
// encoding/json so the bytes match the seed codec exactly (the fuzz
// corpus pins invalid-UTF-8 tag coercion).
func writeTag(buf *bytes.Buffer, t MsgType) error {
	for i := 0; i < len(t); i++ {
		b := t[i]
		if b < 0x20 || b >= 0x7f || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			enc, err := json.Marshal(string(t))
			if err != nil {
				return err
			}
			buf.Write(enc)
			return nil
		}
	}
	buf.WriteByte('"')
	buf.WriteString(string(t))
	buf.WriteByte('"')
	return nil
}

// Send marshals payload and writes one frame in the negotiated wire
// version. The v1 envelope is built in a single pass into a pooled
// buffer — no intermediate payload slice, no re-scan of the payload
// bytes by an outer envelope marshal — and the length prefix and body
// go out in one Write.
func (c *Conn) Send(t MsgType, payload any) error {
	if c.ver.Load() == V2 {
		return c.sendV2(t, payload)
	}
	sb := sendPool.Get().(*sendBuf)
	defer func() {
		if sb.buf.Cap() <= pooledBufLimit {
			sendPool.Put(sb)
		}
	}()
	sb.buf.Reset()
	sb.buf.Write([]byte{0, 0, 0, 0}) // length prefix placeholder
	sb.buf.WriteString(`{"type":`)
	if err := writeTag(&sb.buf, t); err != nil {
		return err
	}
	if payload != nil {
		sb.buf.WriteString(`,"payload":`)
		if err := sb.enc.Encode(payload); err != nil {
			return fmt.Errorf("proto: marshal %s: %w", t, err)
		}
		sb.buf.Truncate(sb.buf.Len() - 1) // Encode appends '\n'
	}
	sb.buf.WriteByte('}')
	frame := sb.buf.Bytes()
	if len(frame)-4 > maxFrame {
		return errFrameTooLarge(uint64(len(frame) - 4))
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	c.wm.Lock()
	defer c.wm.Unlock()
	if err := armDeadline(c.c.SetWriteDeadline, &c.writeT, &c.writeArmed); err != nil {
		return err
	}
	_, err := c.c.Write(frame)
	return err
}

var recvPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// Recv reads one frame and returns its envelope. The frame is read
// into a pooled buffer; unmarshalling copies the payload out (a
// json.RawMessage field always copies), so the buffer is recycled as
// soon as decoding finishes.
func (c *Conn) Recv() (*Envelope, error) {
	c.rm.Lock()
	defer c.rm.Unlock()
	if err := armDeadline(c.c.SetReadDeadline, &c.readT, &c.readArmed); err != nil {
		return nil, err
	}
	if c.ver.Load() == V2 {
		return c.recvV2()
	}
	hdr := c.scratch[:4]
	if _, err := io.ReadFull(c.r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, errFrameTooLarge(uint64(n))
	}
	bp := recvPool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	defer func() {
		if cap(buf) <= pooledBufLimit {
			*bp = buf[:0]
		}
		recvPool.Put(bp)
	}()
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	var env Envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		return nil, fmt.Errorf("proto: bad envelope: %w", err)
	}
	return &env, nil
}

// Decode unmarshals an envelope payload into dst. JSON payloads merge
// into dst (absent fields keep their values); v2 binary payloads
// assign every field.
func (e *Envelope) Decode(dst any) error {
	if len(e.bin) > 0 {
		return decodeBinary(e.bin, dst)
	}
	if len(e.Payload) == 0 {
		return fmt.Errorf("proto: %s has no payload", e.Type)
	}
	return json.Unmarshal(e.Payload, dst)
}

// Request sends one message and waits for a single reply — the
// client-command pattern (qsub and friends). The pairing lock keeps
// concurrent requesters from receiving each other's replies: wm and rm
// individually serialize Send and Recv, but without qm goroutine B's
// send could slip between A's send and A's recv, after which whichever
// goroutine wins rm gets the first reply.
func (c *Conn) Request(t MsgType, payload any) (*Envelope, error) {
	c.qm.Lock()
	defer c.qm.Unlock()
	if err := c.Send(t, payload); err != nil {
		return nil, err
	}
	return c.Recv()
}

// --- payload structs ---

// JobSpec is what qsub submits.
type JobSpec struct {
	Name     string `json:"name"`
	User     string `json:"user"`
	Group    string `json:"group,omitempty"`
	Account  string `json:"account,omitempty"`
	Cores    int    `json:"cores,omitempty"` // core-granular request
	Nodes    int    `json:"nodes,omitempty"` // node-granular request
	PPN      int    `json:"ppn,omitempty"`
	WallSecs int64  `json:"wall_secs"`
	// Script selects the application: "sleep:<dur>", "go:<name>"
	// (process-registered Go function), or "exec:<cmdline>".
	Script   string `json:"script"`
	Evolving bool   `json:"evolving,omitempty"`
	// SystemPriority lifts the job over all others (ESP Z jobs).
	SystemPriority int64 `json:"sysprio,omitempty"`
}

// HostSlice is part of an allocation on one node.
type HostSlice struct {
	Node  string `json:"node"`
	Addr  string `json:"addr"` // mom address for joins / TM spawns
	Cores int    `json:"cores"`
}

// QSubResp acknowledges a submission.
type QSubResp struct {
	JobID int    `json:"job_id"`
	Error string `json:"error,omitempty"`
}

// JobStatus is one qstat row.
type JobStatus struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	User     string  `json:"user"`
	State    string  `json:"state"`
	Cores    int     `json:"cores"`
	DynCores int     `json:"dyn_cores"`
	WaitSecs float64 `json:"wait_secs"`
	Hosts    []HostSlice
}

// QStatResp lists queue contents and node states.
type QStatResp struct {
	Jobs  []JobStatus  `json:"jobs"`
	Nodes []NodeStatus `json:"nodes"`
}

// NodeStatus is one node row of qstat/pbsnodes output.
type NodeStatus struct {
	Name  string `json:"name"`
	Cores int    `json:"cores"`
	Used  int    `json:"used"`
	State string `json:"state"`
}

// QDelReq cancels a job.
type QDelReq struct {
	JobID int `json:"job_id"`
}

// RegisterReq announces a mom to the server. On a re-registration
// (mom restart or reconnection after a link failure) Jobs carries the
// ids of every job the mom still participates in, so the server can
// reconcile: jobs the server runs on the node but the mom no longer
// knows are handled by the failure policy, and jobs the mom reports
// but the server has moved past are killed on the mom.
type RegisterReq struct {
	Node  string `json:"node"`
	Addr  string `json:"addr"` // mom's listen address for TM/joins
	Cores int    `json:"cores"`
	Jobs  []int  `json:"jobs,omitempty"`
}

// HeartbeatReq is the mom's periodic liveness beacon. The server
// declares a node down after HeartbeatMisses beats go missing and
// routes the affected jobs through its failure policy.
type HeartbeatReq struct {
	Node string `json:"node"`
	Seq  int64  `json:"seq"`
	// SentMS is the sender's wall clock in Unix milliseconds when the
	// beat left the mom (0 = not recorded). The server's soak
	// instrumentation uses it to measure heartbeat→stamp latency.
	SentMS int64 `json:"sent_ms,omitempty"`
}

// RunJobReq starts a job on its mother superior (Hosts[0]).
type RunJobReq struct {
	JobID int         `json:"job_id"`
	Spec  JobSpec     `json:"spec"`
	Hosts []HostSlice `json:"hosts"`
}

// KillJobReq stops a running job (walltime or qdel).
type KillJobReq struct {
	JobID int `json:"job_id"`
}

// JobDoneReq reports completion from the mother superior.
type JobDoneReq struct {
	JobID int    `json:"job_id"`
	Error string `json:"error,omitempty"`
}

// DynGetReq is the forwarded tm_dynget (Fig. 3 step 2→3).
type DynGetReq struct {
	JobID int `json:"job_id"`
	Cores int `json:"cores,omitempty"`
	Nodes int `json:"nodes,omitempty"`
	PPN   int `json:"ppn,omitempty"`
	// TimeoutSecs > 0 selects the negotiation protocol: the request
	// stays queued until granted or the timeout passes.
	TimeoutSecs int64 `json:"timeout_secs,omitempty"`
}

// DynGetResp returns the verdict and, if granted, the new hosts
// (Fig. 3 step 5→6).
type DynGetResp struct {
	JobID   int         `json:"job_id"`
	Granted bool        `json:"granted"`
	Reason  string      `json:"reason,omitempty"`
	Hosts   []HostSlice `json:"hosts,omitempty"`
}

// DynFreeReq releases part of an allocation (Fig. 4).
type DynFreeReq struct {
	JobID int         `json:"job_id"`
	Hosts []HostSlice `json:"hosts"`
}

// JoinReq is the mom↔mom (dyn_)join handshake.
type JoinReq struct {
	JobID   int         `json:"job_id"`
	Dynamic bool        `json:"dynamic"` // dyn_join vs initial join
	Hosts   []HostSlice `json:"hosts"`
}

// TMDynGetReq is the application-side tm_dynget call.
type TMDynGetReq struct {
	JobID int `json:"job_id"`
	Cores int `json:"cores,omitempty"`
	Nodes int `json:"nodes,omitempty"`
	PPN   int `json:"ppn,omitempty"`
	// TimeoutSecs > 0 selects the negotiation protocol.
	TimeoutSecs int64 `json:"timeout_secs,omitempty"`
}

// TMDynFreeReq is the application-side tm_dynfree call.
type TMDynFreeReq struct {
	JobID int         `json:"job_id"`
	Hosts []HostSlice `json:"hosts"`
}

// TMDoneReq tells the local mom the application finished.
type TMDoneReq struct {
	JobID int    `json:"job_id"`
	Error string `json:"error,omitempty"`
}

// TMResp answers any TM call.
type TMResp struct {
	OK     bool        `json:"ok"`
	Reason string      `json:"reason,omitempty"`
	Hosts  []HostSlice `json:"hosts,omitempty"`
}

// ErrorResp carries a failure back to the requester.
type ErrorResp struct {
	Error string `json:"error"`
}

// SchedJob is one job in the scheduler's workload snapshot.
type SchedJob struct {
	ID         int    `json:"id"`
	Name       string `json:"name"`
	User       string `json:"user"`
	Group      string `json:"group"`
	State      string `json:"state"`
	Cores      int    `json:"cores"`
	DynCores   int    `json:"dyn_cores"`
	WallSecs   int64  `json:"wall_secs"`
	SubmitMS   int64  `json:"submit_ms"`
	StartMS    int64  `json:"start_ms"`
	SysPrio    int64  `json:"sysprio"`
	Evolving   bool   `json:"evolving"`
	Backfilled bool   `json:"backfilled"`
}

// SchedDynReq is one pending dynamic request in the snapshot.
type SchedDynReq struct {
	JobID int `json:"job_id"`
	Cores int `json:"cores,omitempty"`
	Nodes int `json:"nodes,omitempty"`
	PPN   int `json:"ppn,omitempty"`
	Seq   int `json:"seq"`
	// DeadlineMS carries the negotiation deadline (0 = immediate
	// verdict semantics).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SchedState is the full snapshot an external scheduler plans against.
type SchedState struct {
	NowMS  int64         `json:"now_ms"`
	Nodes  []NodeStatus  `json:"nodes"`
	Queued []SchedJob    `json:"queued"`
	Active []SchedJob    `json:"active"`
	Dyn    []SchedDynReq `json:"dyn"`
	Serial uint64        `json:"serial"` // state version for commit validation
}

// SchedDelta answers every sched.pull after a link's first: what changed
// since the previous pull on that link. Nodes and Dyn are complete; Tail
// holds the jobs appended to the server's queue in between, in queue
// order, and Jobs every other job touched (a terminal state: forget it).
type SchedDelta struct {
	NowMS  int64         `json:"now_ms"`
	Nodes  []NodeStatus  `json:"nodes"`
	Jobs   []SchedJob    `json:"jobs"`
	Tail   []SchedJob    `json:"tail"`
	Dyn    []SchedDynReq `json:"dyn"`
	Serial uint64        `json:"serial"`
}

// SchedAction is one decision in a commit.
type SchedAction struct {
	// Kind: "start", "grant", "reject".
	Kind   string `json:"kind"`
	JobID  int    `json:"job_id"`
	Reason string `json:"reason,omitempty"`
}

// SchedCommit ships the iteration's decisions back to the server.
type SchedCommit struct {
	Serial  uint64        `json:"serial"`
	Actions []SchedAction `json:"actions"`
}

// SchedCommitResp reports how many actions were applied (stale ones
// are skipped, not errors).
type SchedCommitResp struct {
	Applied int `json:"applied"`
	Skipped int `json:"skipped"`
}
