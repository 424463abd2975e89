package proto_test

import (
	"encoding/json"
	"net"
	"testing"

	"repro/internal/proto"
)

// FuzzConnRoundTrip drives a full Send→Recv→Decode cycle over an
// in-process pipe with arbitrary message types and payloads: whatever
// JSON can carry must arrive bit-identically on the other side.
func FuzzConnRoundTrip(f *testing.F) {
	f.Add("qsub", `{"name":"a"}`)
	f.Add("ok", "")
	f.Add("sched.commit", "payload with \x00, quotes \" and ünicode ☃")
	f.Fuzz(func(t *testing.T, typ, payload string) {
		a, b := net.Pipe()
		ca, cb := proto.NewConn(a), proto.NewConn(b)
		defer ca.Close()
		defer cb.Close()
		sendErr := make(chan error, 1)
		go func() { sendErr <- ca.Send(proto.MsgType(typ), payload) }()
		env, err := cb.Recv()
		if serr := <-sendErr; serr != nil {
			t.Fatalf("send: %v", serr)
		}
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		// The wire must preserve exactly what encoding/json preserves:
		// Marshal coerces invalid UTF-8 (in the type tag and in string
		// payloads) to U+FFFD before it hits the wire, so compare
		// against the local JSON round trip, not the raw input.
		if want := jsonRoundTrip(t, typ); string(env.Type) != want {
			t.Fatalf("type = %q, want %q", env.Type, want)
		}
		var got string
		if derr := env.Decode(&got); derr != nil {
			t.Fatalf("decode: %v", derr)
		}
		if want := jsonRoundTrip(t, payload); got != want {
			t.Fatalf("payload = %q, want %q", got, want)
		}
	})
}

// jsonRoundTrip returns s as it survives one encoding/json cycle.
func jsonRoundTrip(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal %q: %v", s, err)
	}
	var out string
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal %q: %v", b, err)
	}
	return out
}

// FuzzConnMalformedFrame feeds raw attacker-controlled bytes to Recv:
// truncated length prefixes, oversized declared lengths and invalid
// JSON must all produce a clean error — never a panic, a hang, or a
// giant allocation driven by the declared frame length.
func FuzzConnMalformedFrame(f *testing.F) {
	f.Add([]byte{0x00, 0x00})                                         // truncated length prefix
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})                        // declared length over maxFrame
	f.Add(append([]byte{0x00, 0x00, 0x00, 0x03}, "xyz"...))           // invalid JSON payload
	f.Add([]byte{0x00, 0x00, 0x00, 0x10, '{', '"'})                   // declared length beyond the data
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, '{', '}'})                   // minimal valid envelope
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})                             // zero-length frame
	f.Add(append([]byte{0x00, 0x00, 0x00, 0x0d}, `{"type":"ok"}`...)) // payload-less envelope
	f.Add([]byte{0xF2, 'P', 'B', 0x02})                               // v2 magic fed to a v1 reader
	f.Fuzz(func(t *testing.T, frame []byte) {
		peer, ours := net.Pipe()
		go func() {
			_, _ = peer.Write(frame)
			_ = peer.Close() // EOF unblocks a Recv waiting for more bytes
		}()
		c := proto.NewConn(ours)
		defer c.Close()
		env, err := c.Recv()
		if err == nil && env == nil {
			t.Fatal("Recv returned neither an envelope nor an error")
		}
	})
}
