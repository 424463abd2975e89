// Wire protocol v2: a compact binary framing negotiated at connection
// setup, with v1 (length-prefixed JSON) kept as the fallback for old
// peers.
//
// Handshake. A v2-capable dialer opens with 4 bytes of magic —
// 0xF2 'P' 'B' <proposed-version> — and blocks for the 4-byte reply
// 0xF2 'P' 'B' <chosen-version>. The first magic byte 0xF2 cannot
// begin a legal v1 frame (v1 length prefixes are big-endian uint32s
// capped at 16 MB, so their first byte is always 0x00 or 0x01), which
// lets an acceptor classify a connection by sniffing a single byte:
// magic → negotiate, anything else → the byte is the start of a v1
// frame and is handed back to the first Recv. Old acceptors read the
// magic as an oversized length prefix, error out, and drop the
// connection; a ModeAuto dialer treats that as "old peer" and
// re-dials plain v1.
//
// Frame. v2 frames are `uvarint(len(body)) || body` with
//
//	body = tag || kind || payload
//	tag  = id byte 1..N from the registry table, or
//	       0x00 || uvarint(len) || literal tag bytes (unregistered types)
//	kind = 0 (no payload) | 1 (JSON bytes) | 2 (binary)
//
// Binary payloads — every payload struct of proto.go has one, see
// codec2_payloads.go — carry a codec id byte followed by varint/zigzag
// fields; strings and lists are length-prefixed. Any other payload (a
// string, a map, a typed nil pointer) rides as the same compact JSON
// bytes v1 would produce, so nothing is unrepresentable in v2, and the
// two codecs decode to identical structs (the differential fuzz
// target pins this).
package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Wire versions.
const (
	V1 = 1 // length-prefixed JSON (the seed codec)
	V2 = 2 // negotiated binary framing
)

// handshakeMagic opens and acknowledges a version negotiation.
var handshakeMagic = [3]byte{0xF2, 'P', 'B'}

// Mode selects how a connection negotiates its wire version.
type Mode int

const (
	// ModeAuto proposes v2 and falls back to v1 against old peers; it
	// is the zero value so un-configured daemons interoperate with
	// everything.
	ModeAuto Mode = iota
	// ModeV1 pins the seed JSON codec: no handshake bytes on the wire.
	ModeV1
	// ModeV2 requires the binary codec; dialing an old peer fails
	// instead of falling back.
	ModeV2
)

// String implements flag.Value-style printing ("auto", "v1", "v2").
func (m Mode) String() string {
	switch m {
	case ModeV1:
		return "v1"
	case ModeV2:
		return "v2"
	default:
		return "auto"
	}
}

// ParseMode parses a -proto flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto":
		return ModeAuto, nil
	case "v1", "1":
		return ModeV1, nil
	case "v2", "2":
		return ModeV2, nil
	}
	return ModeAuto, fmt.Errorf("proto: unknown mode %q (want v1, v2, or auto)", s)
}

// DialMode connects to addr and negotiates the wire codec per m.
func DialMode(addr string, m Mode) (*Conn, error) {
	return DialModeTimeout(addr, m, 0)
}

// DialModeTimeout is DialMode with the dial and the handshake exchange
// each bounded by d (0 = unbounded). In ModeAuto a failed handshake —
// an old v1-only peer reads the magic as a bogus frame length, errors
// out, and drops the connection — is retried as a plain v1 dial.
func DialModeTimeout(addr string, m Mode, d time.Duration) (*Conn, error) {
	return dialModeTimeout(addr, m, d, nil)
}

// dialModeTimeout is DialModeTimeout that hands each connection to
// connected, when set, as soon as it is connected — before its
// handshake, so that the caller can end a handshake that hangs. An
// error from connected ends the dial with it.
func dialModeTimeout(addr string, m Mode, d time.Duration, connected func(*Conn) error) (*Conn, error) {
	dial := func() (*Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, max(d, 0))
		if err != nil {
			return nil, err
		}
		c := NewConn(nc)
		if connected != nil {
			if err := connected(c); err != nil {
				_ = c.Close()
				return nil, err
			}
		}
		return c, nil
	}
	c, err := dial()
	if err != nil {
		return nil, err
	}
	if m == ModeV1 {
		return c, nil
	}
	if d > 0 {
		c.SetReadTimeout(d)
		c.SetWriteTimeout(d)
	}
	if err := c.ClientHandshake(m); err != nil {
		_ = c.Close()
		if m == ModeAuto {
			return dial() // old peer: fall back to plain v1
		}
		return nil, err
	}
	c.SetReadTimeout(0)
	c.SetWriteTimeout(0)
	return c, nil
}

// ClientHandshake proposes v2 on a freshly dialed connection and
// records the version the peer chooses. It must run before any Send
// or Recv; ModeV1 is a no-op. Callers wanting a bound on the exchange
// should arm SetRead/WriteTimeout first (DialModeTimeout does).
func (c *Conn) ClientHandshake(m Mode) error {
	if m == ModeV1 {
		return nil
	}
	hello := [4]byte{handshakeMagic[0], handshakeMagic[1], handshakeMagic[2], V2}
	if _, err := c.c.Write(hello[:]); err != nil {
		return fmt.Errorf("proto: handshake write: %w", err)
	}
	var reply [4]byte
	c.rm.Lock()
	_, err := io.ReadFull(c.r, reply[:])
	c.rm.Unlock()
	if err != nil {
		return fmt.Errorf("proto: handshake read: %w", err)
	}
	if reply[0] != handshakeMagic[0] || reply[1] != handshakeMagic[1] || reply[2] != handshakeMagic[2] {
		return fmt.Errorf("proto: bad handshake reply magic %x", reply[:3])
	}
	switch v := reply[3]; v {
	case V1, V2:
		c.ver.Store(uint32(v))
	default:
		return fmt.Errorf("proto: peer chose unsupported version %d", v)
	}
	return nil
}

// AcceptHandshake classifies an inbound connection by peeking at its
// first byte: the v2 magic starts a negotiation (the acceptor replies
// with the chosen version), anything else marks a v1 peer and the
// byte stays buffered for the first Recv. It must run before any Recv.
//
// m == ModeV1 pins the reply to v1 even for v2-proposing peers. A
// ModeV2 acceptor still serves sniffed v1 peers: the paper's
// qsub/qstat clients never handshake, and refusing them would break
// every old client for no protocol benefit.
//
//lint:locked the handshake runs before any Recv, on a conn no other goroutine reads yet
func (c *Conn) AcceptHandshake(m Mode) error {
	first, err := c.r.Peek(1)
	if err != nil {
		return fmt.Errorf("proto: handshake read: %w", err)
	}
	if first[0] != handshakeMagic[0] {
		return nil
	}
	if _, err := io.ReadFull(c.r, c.scratch[:4]); err != nil {
		return fmt.Errorf("proto: handshake read: %w", err)
	}
	if c.scratch[1] != handshakeMagic[1] || c.scratch[2] != handshakeMagic[2] {
		return fmt.Errorf("proto: bad handshake magic %x", c.scratch[:3])
	}
	proposed := c.scratch[3]
	if proposed < V1 {
		return fmt.Errorf("proto: peer proposed version %d", proposed)
	}
	chosen := byte(V1)
	if proposed >= V2 && m != ModeV1 {
		chosen = V2
	}
	reply := [4]byte{handshakeMagic[0], handshakeMagic[1], handshakeMagic[2], chosen}
	if _, err := c.c.Write(reply[:]); err != nil {
		return fmt.Errorf("proto: handshake write: %w", err)
	}
	c.ver.Store(uint32(chosen))
	return nil
}

// --- v2 framing ---

// Payload kinds inside a v2 frame.
const (
	payloadNone byte = 0
	payloadJSON byte = 1
	payloadBin  byte = 2
)

// tagID maps each registered MsgType to its stable one-byte v2 id.
// Ids are append-only wire constants: never renumber or reuse them.
// (A map plus reverse array — not a switch — so the table stays out of
// schedlint's dispatch-switch registry.)
var tagID = map[MsgType]byte{
	TQSub: 1, TQStat: 2, TQDel: 3,
	TQSubResp: 4, TQStatResp: 5,
	TRegister: 6, TJobDone: 7, TDynGet: 8, TDynFree: 9, THeartbeat: 10,
	TRunJob: 11, TKillJob: 12, TDynGetResp: 13,
	TJoin: 14, TDynJoin: 15, TDynDisjoin: 16,
	TTMDynGet: 17, TTMDynFree: 18, TTMDone: 19, TTMResp: 20,
	TSchedPull: 21, TSchedState: 22, TSchedCommit: 23,
	TOK: 24, TError: 25,
	TSchedDelta: 26,
}

// tagType is the id → type reverse table.
var tagType = func() [27]MsgType {
	var t [27]MsgType
	for m, id := range tagID {
		t[id] = m
	}
	return t
}()

// v2LenPlaceholder reserves room for the frame-length uvarint at the
// head of the pooled send buffer (maxFrame needs at most 4 bytes; 5
// covers any uint32).
var v2LenPlaceholder [binary.MaxVarintLen32]byte

// sendV2 writes one v2 frame: the body is built in the pooled buffer
// after a length placeholder, then the uvarint length is patched in
// just before the body and the frame goes out in one Write.
func (c *Conn) sendV2(t MsgType, payload any) error {
	sb := sendPool.Get().(*sendBuf)
	defer func() {
		if sb.buf.Cap() <= pooledBufLimit {
			sendPool.Put(sb)
		}
	}()
	sb.buf.Reset()
	sb.buf.Write(v2LenPlaceholder[:])
	if id := tagID[t]; id != 0 {
		sb.buf.WriteByte(id)
	} else {
		sb.buf.WriteByte(0)
		s := coerceUTF8(string(t))
		putUvarint(&sb.buf, uint64(len(s)))
		sb.buf.WriteString(s)
	}
	if !appendBinary(&sb.buf, payload) {
		if payload == nil {
			sb.buf.WriteByte(payloadNone)
		} else {
			sb.buf.WriteByte(payloadJSON)
			if err := sb.enc.Encode(payload); err != nil {
				return fmt.Errorf("proto: marshal %s: %w", t, err)
			}
			sb.buf.Truncate(sb.buf.Len() - 1) // Encode appends '\n'
		}
	}
	frame := sb.buf.Bytes()
	body := len(frame) - len(v2LenPlaceholder)
	if body > maxFrame {
		return errFrameTooLarge(uint64(body))
	}
	var hdr [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(hdr[:], uint64(body))
	start := len(v2LenPlaceholder) - n
	copy(frame[start:], hdr[:n])
	c.wm.Lock()
	defer c.wm.Unlock()
	if err := armDeadline(c.c.SetWriteDeadline, &c.writeT, &c.writeArmed); err != nil {
		return err
	}
	_, err := c.c.Write(frame[start:])
	return err
}

// recvV2 reads one v2 frame. Caller holds rm with the read deadline
// already armed.
//
//lint:locked its one caller, Recv, runs with c.rm held
func (c *Conn) recvV2() (*Envelope, error) {
	n, err := readFrameLen(c.r)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, errFrameTooLarge(n)
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
	return parseV2(buf)
}

// readFrameLen reads the frame-length uvarint a byte at a time from the
// conn's read buffer, so a length costs no read of its own: the buffer
// fill that brings it usually brings the body, and the frames behind it.
func readFrameLen(r io.ByteReader) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen32; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("proto: malformed v2 frame length")
}

// parseV2 decodes a frame body into an envelope. The payload bytes
// are copied out so the pooled buffer can be recycled.
func parseV2(buf []byte) (*Envelope, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("proto: short v2 frame (%d bytes)", len(buf))
	}
	tag, rest := buf[0], buf[1:]
	env := &Envelope{}
	if tag == 0 {
		l, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < l {
			return nil, fmt.Errorf("proto: bad v2 literal tag")
		}
		env.Type = MsgType(rest[n : n+int(l)])
		rest = rest[n+int(l):]
	} else if int(tag) < len(tagType) && tagType[tag] != "" {
		env.Type = tagType[tag]
	} else {
		return nil, fmt.Errorf("proto: unknown v2 tag id %d", tag)
	}
	if len(rest) < 1 {
		return nil, fmt.Errorf("proto: v2 frame missing payload kind")
	}
	kind, pl := rest[0], rest[1:]
	switch kind {
	case payloadNone:
		if len(pl) != 0 {
			return nil, fmt.Errorf("proto: %d trailing bytes after empty payload", len(pl))
		}
	case payloadJSON:
		if len(pl) == 0 {
			return nil, fmt.Errorf("proto: empty v2 JSON payload")
		}
		env.Payload = append(json.RawMessage(nil), pl...)
	case payloadBin:
		if len(pl) < 2 { // codec id + at least one field byte
			return nil, fmt.Errorf("proto: short v2 binary payload")
		}
		env.bin = append([]byte(nil), pl...)
	default:
		return nil, fmt.Errorf("proto: unknown v2 payload kind %d", kind)
	}
	return env, nil
}

// --- binary payload dispatch ---

// binEncoder is the Send half of a payload struct's v2 binary codec
// (the codecs themselves are in codec2_payloads.go). Both methods have
// value receivers, so a payload satisfies it whether the caller passes
// T or *T.
type binEncoder interface {
	codecID() byte
	appendBin(buf *bytes.Buffer)
}

// binDecoder is the Decode half, satisfied by *T only.
type binDecoder interface {
	codecID() byte
	readBin(r *binReader)
}

// appendBinary writes kind + codec id + fields for a payload struct
// with a binary codec; false means the caller should fall back to
// JSON-in-v2. Typed nil pointers fall back too, matching v1's "null"
// payload.
func appendBinary(buf *bytes.Buffer, payload any) bool {
	enc, ok := payload.(binEncoder)
	if !ok {
		return false
	}
	if v := reflect.ValueOf(payload); v.Kind() == reflect.Pointer && v.IsNil() {
		return false
	}
	buf.WriteByte(payloadBin)
	buf.WriteByte(enc.codecID())
	enc.appendBin(buf)
	return true
}

// readerPool recycles decode cursors: readBin is called through an
// interface, so a stack-allocated reader would escape on every Decode.
var readerPool = sync.Pool{New: func() any { return new(binReader) }}

// decodeBinary decodes a v2 binary payload (codec id + fields) into
// dst, which must be a pointer to the struct the codec id names.
func decodeBinary(bin []byte, dst any) error {
	dec, ok := dst.(binDecoder)
	if !ok {
		return fmt.Errorf("proto: cannot decode binary payload into %T", dst)
	}
	if bin[0] != dec.codecID() {
		return codecMismatch(bin[0], dst)
	}
	r := readerPool.Get().(*binReader)
	defer func() {
		*r = binReader{}
		readerPool.Put(r)
	}()
	r.b = bin[1:]
	dec.readBin(r)
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("proto: %d trailing bytes in binary payload", len(r.b))
	}
	return nil
}

func codecMismatch(codec byte, dst any) error {
	return fmt.Errorf("proto: binary payload codec %d does not decode into %T", codec, dst)
}

// binReader walks a binary payload, latching the first error. A reader
// belongs to one decodeBinary call from readerPool.Get to Put.
type binReader struct {
	b   []byte //schedlint:confined decoder the pool hands a reader to one decodeBinary call at a time
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("proto: malformed binary payload field %s", what)
	}
}

func (r *binReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a zigzag varint into an int field.
func (r *binReader) int(what string) int { return int(r.varint(what)) }

// bytes returns the next length-prefixed field, aliasing the payload.
func (r *binReader) bytes(what string) []byte {
	n := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail(what)
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *binReader) str(what string) string { return string(r.bytes(what)) }

func (r *binReader) bool(what string) bool {
	switch r.uvarint(what) {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(what)
		return false
	}
}

// f64 reads a float64 as its 8 IEEE-754 bytes, little-endian.
func (r *binReader) f64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// count reads a list length. Each element encodes to at least minBytes,
// so a declared length the remaining payload cannot hold fails here,
// before the caller sizes an allocation by it. Lists of length zero
// decode to nil, matching the JSON omitempty round trip.
func (r *binReader) count(what string, minBytes int) int {
	n := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)/minBytes) {
		r.fail(what)
		return 0
	}
	return int(n)
}

func (r *binReader) hosts(what string) []HostSlice {
	n := r.count(what, 3)
	if n == 0 {
		return nil
	}
	hs := make([]HostSlice, n)
	for i := range hs {
		hs[i].Node = r.str(what)
		hs[i].Addr = r.str(what)
		hs[i].Cores = r.int(what)
	}
	return hs
}

func (r *binReader) ints(what string) []int {
	n := r.count(what, 1)
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.int(what)
	}
	return vs
}

// interner hands out one string per distinct value, so the few
// states, users and groups a snapshot's jobs share cost one allocation
// each instead of one per job. It stops growing at internMax entries:
// past that, values are mostly distinct and the map would only cost.
type interner map[string]string

const internMax = 4096

func (in interner) str(r *binReader, what string) string {
	b := r.bytes(what)
	if s, ok := in[string(b)]; ok { // no allocation: the compiler elides this conversion
		return s
	}
	s := string(b)
	if len(in) < internMax {
		in[s] = s
	}
	return s
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var s [binary.MaxVarintLen64]byte
	buf.Write(s[:binary.PutUvarint(s[:], v)])
}

func putVarint(buf *bytes.Buffer, v int64) {
	var s [binary.MaxVarintLen64]byte
	buf.Write(s[:binary.PutVarint(s[:], v)])
}

func putString(buf *bytes.Buffer, s string) {
	s = coerceUTF8(s)
	putUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func putBool(buf *bytes.Buffer, b bool) {
	if b {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
}

func putFloat64(buf *bytes.Buffer, v float64) {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], math.Float64bits(v))
	buf.Write(s[:])
}

func putInt(buf *bytes.Buffer, v int) { putVarint(buf, int64(v)) }

func putHosts(buf *bytes.Buffer, hs []HostSlice) {
	putUvarint(buf, uint64(len(hs)))
	for i := range hs {
		putString(buf, hs[i].Node)
		putString(buf, hs[i].Addr)
		putInt(buf, hs[i].Cores)
	}
}

// coerceUTF8 returns s with every invalid UTF-8 byte replaced by
// U+FFFD, exactly as encoding/json does when marshalling a string —
// per byte, not per run (strings.ToValidUTF8 collapses runs and would
// diverge from the v1 bytes the differential fuzz target compares
// against). Valid strings return unchanged with no allocation.
func coerceUTF8(s string) string {
	i := 0
	for i < len(s) {
		if s[i] < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	if i == len(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteString(s[:i])
	for i < len(s) {
		if s[i] < utf8.RuneSelf {
			b.WriteByte(s[i])
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(utf8.RuneError)
			i++
			continue
		}
		b.WriteString(s[i : i+size])
		i += size
	}
	return b.String()
}
