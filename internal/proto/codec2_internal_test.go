package proto

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"reflect"
	"strings"
	"testing"
)

// payloadSample is one payload struct with every field set, the
// message type it travels under, and its pinned wire codec id.
type payloadSample struct {
	typ   MsgType
	codec byte
	val   any // *T
}

// samplePayloads lists every payload struct of proto.go
// (TestEveryPayloadHasBinaryCodec keeps the list complete). The codec
// ids are written out, not taken from the constants: they are wire
// values and a renumbering must fail here.
func samplePayloads() []payloadSample {
	hosts := []HostSlice{{Node: "n1", Addr: "127.0.0.1:15002", Cores: 4}, {Node: "n2", Addr: "a2", Cores: -1}}
	spec := JobSpec{Name: "F.1", User: "user06", Group: "grp06", Account: "acct", Cores: 8, Nodes: 2, PPN: 4,
		WallSecs: 1846, Script: "sleep:1s", Evolving: true, SystemPriority: -3}
	nodes := []NodeStatus{{Name: "node0", Cores: 8, Used: 4, State: "up"}, {Name: "node1", Cores: 8, State: "down"}}
	return []payloadSample{
		{THeartbeat, 1, &HeartbeatReq{Node: "mom-00042", Seq: 17, SentMS: 1723}},
		{TJobDone, 2, &JobDoneReq{JobID: 7, Error: "exit 1"}},
		{TDynGet, 3, &DynGetReq{JobID: 7, Cores: 4, Nodes: 1, PPN: 4, TimeoutSecs: 30}},
		{TDynGetResp, 4, &DynGetResp{JobID: 7, Granted: true, Reason: "ok", Hosts: hosts}},
		{TRegister, 5, &RegisterReq{Node: "n3", Addr: "127.0.0.1:9999", Cores: 16, Jobs: []int{3, -9, 1 << 30}}},
		{TSchedState, 6, &SchedState{NowMS: 12345, Nodes: nodes,
			Queued: []SchedJob{{ID: 1, Name: "L.12", User: "u", Group: "g", State: "queued", Cores: 4, WallSecs: 60, SubmitMS: 900, SysPrio: 5},
				{ID: 3, Name: "L.13", User: "u", Group: "g", State: "queued", Cores: 2, WallSecs: 61, SubmitMS: 901}},
			Active: []SchedJob{{ID: 2, User: "v", State: "running", Cores: 8, DynCores: 2, StartMS: 1000, Evolving: true, Backfilled: true}},
			Dyn:    []SchedDynReq{{JobID: 2, Cores: 4, Nodes: 1, PPN: 4, Seq: 1, DeadlineMS: 99}},
			Serial: 1<<63 + 42}},
		{TSchedCommit, 7, &SchedCommit{Serial: 42, Actions: []SchedAction{{Kind: "start", JobID: 1}, {Kind: "reject", JobID: 2, Reason: "no"}}}},
		{TOK, 8, &SchedCommitResp{Applied: 3, Skipped: 1}},
		{TRunJob, 9, &RunJobReq{JobID: 9, Spec: spec, Hosts: hosts}},
		{TQSub, 10, &spec},
		{TJoin, 11, &JoinReq{JobID: 9, Dynamic: true, Hosts: hosts}},
		{TQSubResp, 12, &QSubResp{JobID: 9, Error: "busy"}},
		{TQStatResp, 13, &QStatResp{Nodes: nodes, Jobs: []JobStatus{
			{ID: 1, Name: "a", User: "u", State: "running", Cores: 4, DynCores: 1, WaitSecs: 0.1 + 0.2, Hosts: hosts},
			{ID: 2, Name: "b", User: "u", State: "queued", Cores: 2, WaitSecs: -1e300}}}},
		{TQDel, 14, &QDelReq{JobID: 11}},
		{TKillJob, 15, &KillJobReq{JobID: 12}},
		{TDynFree, 16, &DynFreeReq{JobID: 7, Hosts: hosts}},
		{TTMDynGet, 17, &TMDynGetReq{JobID: 7, Cores: 4, Nodes: 1, PPN: 4, TimeoutSecs: 30}},
		{TTMDynFree, 18, &TMDynFreeReq{JobID: 7, Hosts: hosts}},
		{TTMDone, 19, &TMDoneReq{JobID: 7, Error: "boom"}},
		{TTMResp, 20, &TMResp{OK: true, Reason: "r", Hosts: hosts}},
		{TError, 21, &ErrorResp{Error: "unexpected"}},
		{TSchedDelta, 22, &SchedDelta{NowMS: 12346, Nodes: nodes,
			Jobs: []SchedJob{{ID: 2, User: "v", State: "completed", Cores: 8, StartMS: 1000, Evolving: true},
				{ID: 4, Name: "L.14", User: "u", Group: "g", State: "running", Cores: 2, DynCores: 1, WallSecs: 61, SubmitMS: 901, StartMS: 1100, Backfilled: true}},
			Tail:   []SchedJob{{ID: 5, Name: "L.15", User: "w", Group: "g", State: "queued", Cores: 3, WallSecs: 62, SubmitMS: 1200, SysPrio: -1}},
			Dyn:    []SchedDynReq{{JobID: 4, Cores: 4, Nodes: 1, PPN: 4, Seq: 2, DeadlineMS: 199}},
			Serial: 1<<63 + 43}},
	}
}

// newPayload returns a zero *T of the sample's struct type.
func (s payloadSample) newPayload() any {
	return reflect.New(reflect.TypeOf(s.val).Elem()).Interface()
}

// encodeBin returns kind + codec id + fields, as sendV2 lays them out.
func encodeBin(t *testing.T, payload any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if !appendBinary(&buf, payload) {
		t.Fatalf("%T has no binary codec", payload)
	}
	return buf.Bytes()
}

// TestEveryPayloadHasBinaryCodec: every struct declared in proto.go is
// either a payload with a binary codec — taken by T and by *T, zero or
// filled, under its pinned id — or is named here as a part of one. A
// new payload struct that would ride v2 as JSON fails this test.
func TestEveryPayloadHasBinaryCodec(t *testing.T) {
	parts := map[string]bool{
		"Envelope": true, "Conn": true, "sendBuf": true, // not payloads
		"HostSlice": true, "JobStatus": true, "NodeStatus": true, // encoded inside their parents
		"SchedJob": true, "SchedDynReq": true, "SchedAction": true,
	}
	covered := map[string]bool{}
	ids := map[byte]string{}
	for _, s := range samplePayloads() {
		name := reflect.TypeOf(s.val).Elem().Name()
		covered[name] = true
		if prev, dup := ids[s.codec]; dup {
			t.Errorf("codec id %d names both %s and %s", s.codec, prev, name)
		}
		ids[s.codec] = name
		zero := s.newPayload()
		for _, payload := range []any{s.val, reflect.ValueOf(s.val).Elem().Interface(), zero} {
			enc := encodeBin(t, payload)
			if enc[0] != payloadBin || enc[1] != s.codec {
				t.Errorf("%T encodes as kind %d codec %d, want kind %d codec %d", payload, enc[0], enc[1], payloadBin, s.codec)
			}
		}
		if _, ok := zero.(binDecoder); !ok {
			t.Errorf("%T cannot be decoded from a binary payload", zero)
		}
	}
	f, err := parser.ParseFile(token.NewFileSet(), "proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, sp := range gd.Specs {
			ts, ok := sp.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
				continue
			}
			if name := ts.Name.Name; !covered[name] && !parts[name] {
				t.Errorf("struct %s in proto.go has no binary codec: add one to codec2_payloads.go and a row to samplePayloads", name)
			}
		}
	}
}

// TestBinaryCodecsRoundTrip: each sample decodes from its own encoding
// to the value the v1 JSON codec would deliver.
func TestBinaryCodecsRoundTrip(t *testing.T) {
	for _, s := range samplePayloads() {
		got := s.newPayload()
		if err := decodeBinary(encodeBin(t, s.val)[1:], got); err != nil {
			t.Errorf("%T: %v", s.val, err)
			continue
		}
		if !reflect.DeepEqual(got, s.val) {
			t.Errorf("binary round trip:\n got %+v\nwant %+v", got, s.val)
		}
		js, err := json.Marshal(s.val)
		if err != nil {
			t.Fatal(err)
		}
		viaJSON := s.newPayload()
		if err := json.Unmarshal(js, viaJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, viaJSON) {
			t.Errorf("v1/v2 disagree:\n v2 %+v\n v1 %+v", got, viaJSON)
		}
	}
}

// TestBinaryCodecsRejectDamage: for every codec, each strict prefix of
// a valid encoding and the encoding plus one byte fail to decode, and
// so does a valid encoding offered to any other struct.
func TestBinaryCodecsRejectDamage(t *testing.T) {
	samples := samplePayloads()
	for _, s := range samples {
		bin := encodeBin(t, s.val)[1:] // codec id + fields, as Envelope.bin holds it
		for cut := 1; cut < len(bin); cut++ {
			if err := decodeBinary(bin[:cut], s.newPayload()); err == nil {
				t.Errorf("%T: %d of %d bytes decoded without error", s.val, cut, len(bin))
			}
		}
		long := append(append([]byte(nil), bin...), 0x00)
		if err := decodeBinary(long, s.newPayload()); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("%T with a trailing byte: %v, want a trailing-bytes error", s.val, err)
		}
		for _, other := range samples {
			if other.codec == s.codec {
				continue
			}
			if err := decodeBinary(bin, other.newPayload()); err == nil || !strings.Contains(err.Error(), "does not decode into") {
				t.Errorf("%T decoded into %T: %v, want a codec-mismatch error", s.val, other.val, err)
			}
		}
	}
}

// TestV2DecodesJSONKindForEveryPayload: a v2 peer built before a
// struct had a binary codec ships it as payload kind 1; every
// registered type must still decode from that.
func TestV2DecodesJSONKindForEveryPayload(t *testing.T) {
	for _, s := range samplePayloads() {
		js, err := json.Marshal(s.val)
		if err != nil {
			t.Fatal(err)
		}
		body := append([]byte{tagID[s.typ], payloadJSON}, js...)
		env, err := parseV2(body)
		if err != nil {
			t.Fatalf("%s: %v", s.typ, err)
		}
		got := s.newPayload()
		if err := env.Decode(got); err != nil {
			t.Fatalf("%s: %v", s.typ, err)
		}
		if !reflect.DeepEqual(got, s.val) {
			t.Errorf("%s from a JSON-kind v2 frame:\n got %+v\nwant %+v", s.typ, got, s.val)
		}
	}
}

// TestCountBoundsAllocation: a list length the remaining bytes cannot
// hold is refused before anything is sized by it.
func TestCountBoundsAllocation(t *testing.T) {
	// SchedState: now_ms=0, nodes=0, queued=2^40 with no bytes behind it.
	bin := []byte{codecSchedState, 0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	var st SchedState
	if err := decodeBinary(bin, &st); err == nil || !strings.Contains(err.Error(), "queued") {
		t.Fatalf("oversized queued count: %v, want a field error", err)
	}
}

// v2Pair returns an in-memory pair pinned to the v2 framing. The
// version is forced directly — the handshake itself is covered by the
// integration tests — so malformed-frame bytes can be injected
// without a negotiating peer.
func v2Pair(t testing.TB) (*Conn, net.Conn) {
	t.Helper()
	peer, ours := net.Pipe()
	c := NewConn(ours)
	c.ver.Store(V2)
	t.Cleanup(func() {
		_ = c.Close()
		_ = peer.Close()
	})
	return c, peer
}

// TestV2MalformedFrames: every malformed v2 byte sequence must surface
// as a clean Recv error — never a panic, a hang, or an attacker-sized
// allocation.
func TestV2MalformedFrames(t *testing.T) {
	cases := []struct {
		name  string
		bytes []byte
	}{
		{"zero-length frame", []byte{0x00}},
		{"length over maxFrame", []byte{0x81, 0x80, 0x80, 0x09}}, // uvarint 18<<20
		{"unterminated length varint", []byte{0xff, 0xff, 0xff, 0xff, 0xff}},
		{"tag only, no kind", []byte{0x01, 0x0a}},
		{"unknown tag id", []byte{0x02, 27, 0x00}},
		{"truncated literal tag", []byte{0x04, 0x00, 0x0a, 'a', 'b'}},
		{"unknown payload kind", []byte{0x03, 0x0a, 0x09, 0x00}},
		{"empty JSON payload", []byte{0x02, 0x0a, 0x01}},
		{"short binary payload", []byte{0x03, 0x0a, 0x02, 0x01}},
		{"trailing bytes after empty payload", []byte{0x03, 0x0a, 0x00, 0x00}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, peer := v2Pair(t)
			go func() {
				_, _ = peer.Write(tc.bytes)
				_ = peer.Close()
			}()
			if env, err := c.Recv(); err == nil {
				t.Fatalf("Recv(%x) = %+v, want error", tc.bytes, env)
			}
		})
	}
}

// TestV2TruncatedBinaryPayload: a binary payload cut mid-field must
// error out of Decode, not fabricate zero values.
func TestV2TruncatedBinaryPayload(t *testing.T) {
	c, peer := v2Pair(t)
	// heartbeat codec: node="ab" but only one byte of it present.
	body := []byte{byte(tagID[THeartbeat]), payloadBin, codecHeartbeat, 0x02, 'a'}
	frame := append([]byte{byte(len(body))}, body...)
	go func() {
		_, _ = peer.Write(frame)
		_ = peer.Close()
	}()
	env, err := c.Recv()
	if err != nil {
		t.Fatalf("framing should accept the bytes: %v", err)
	}
	var hb HeartbeatReq
	if err := env.Decode(&hb); err == nil || !strings.Contains(err.Error(), "node") {
		t.Fatalf("Decode of truncated heartbeat = %+v, %v; want field error", hb, err)
	}
}

// TestV2TrailingBinaryBytes: extra bytes after the last field are a
// framing violation, not silently ignored padding.
func TestV2TrailingBinaryBytes(t *testing.T) {
	c, peer := v2Pair(t)
	body := []byte{byte(tagID[TJobDone]), payloadBin, codecJobDone,
		0x0e /* job_id=7 */, 0x00 /* error="" */, 0xAA /* trailing */}
	frame := append([]byte{byte(len(body))}, body...)
	go func() {
		_, _ = peer.Write(frame)
		_ = peer.Close()
	}()
	env, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var jd JobDoneReq
	if err := env.Decode(&jd); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Decode with trailing bytes = %+v, %v; want trailing-bytes error", jd, err)
	}
}

func TestCoerceUTF8MatchesJSON(t *testing.T) {
	cases := []string{
		"", "plain ascii", "ünicode ☃", "\xff", "a\xffb", "\xff\xfe\xfd",
		"trunc \xe2\x82", "\xed\xa0\x80 surrogate", "mixed\x00\xf0\x9f\x9a\x80ok",
	}
	for _, s := range cases {
		if got, want := coerceUTF8(s), jsonCoerce(t, s); got != want {
			t.Errorf("coerceUTF8(%q) = %q, want %q (encoding/json)", s, got, want)
		}
	}
}

func jsonCoerce(t *testing.T, s string) string {
	t.Helper()
	type w struct{ S string }
	b, err := json.Marshal(w{S: s})
	if err != nil {
		t.Fatal(err)
	}
	var out w
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out.S
}
