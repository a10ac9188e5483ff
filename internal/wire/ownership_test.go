package wire

import (
	"bytes"
	"os"
	"testing"

	"kvcsd/internal/nvme"
)

// Every test of this package runs with released bodies poisoned.
func TestMain(m *testing.M) {
	poisonReleased = true
	os.Exit(m.Run())
}

func readRequest(t testing.TB, frame []byte) *Request {
	t.Helper()
	h, payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	req, err := DecodeRequest(h, payload)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return req
}

func readResponse(t testing.TB, frame []byte) *Response {
	t.Helper()
	h, payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	resp, err := DecodeResponse(h, payload)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	return resp
}

// TestRequestViewsDieWithRelease shows both halves of the request rule: byte
// fields are views into the pooled body (no copy), so a holder that keeps them
// past Release reads poison, and the keyspace name, a string, survives.
func TestRequestViewsDieWithRelease(t *testing.T) {
	frame, err := AppendRequestFrame(nil, &Request{ID: 1, Op: OpPut, Keyspace: "ks", Key: []byte("key"), Value: []byte("value"),
		Pairs: []nvme.KVPair{{Key: []byte("pk"), Value: []byte("pv")}}})
	if err != nil {
		t.Fatal(err)
	}
	req := readRequest(t, frame)
	key, value, pair, name := req.Key, req.Value, req.Pairs[0], req.Keyspace
	if string(key) != "key" || string(value) != "value" || string(pair.Key) != "pk" || string(pair.Value) != "pv" {
		t.Fatalf("decoded %q %q %q %q", key, value, pair.Key, pair.Value)
	}
	req.Release()
	req.Release() // a second call is a no-op
	for _, b := range [][]byte{key, value, pair.Key, pair.Value} {
		if !bytes.Equal(b, bytes.Repeat([]byte{poisonByte}, len(b))) {
			t.Fatalf("bytes kept past Release read %x, want poison", b)
		}
	}
	if name != "ks" {
		t.Fatalf("keyspace name %q did not survive Release", name)
	}
}

// TestResponseBodyGoesToCaller shows the response rule: a value and pairs
// stay valid after Release (their body is handed over, not pooled), however
// many frames are read after it.
func TestResponseBodyGoesToCaller(t *testing.T) {
	want := sampleResponse()
	frame := AppendResponseFrames(nil, want, 0)
	resp := readResponse(t, frame)
	kept := resp.Detach()
	ping := AppendResponseFrames(nil, &Response{ID: 2, Op: OpPing, Status: StatusOK}, 0)
	for i := 0; i < 8; i++ {
		readResponse(t, ping).Release()
		readRequest(t, mustRequestFrame(t, &Request{ID: 3, Op: OpGet, Keyspace: "ks", Key: bytes.Repeat([]byte{'k'}, 64)})).Release()
	}
	if !bytes.Equal(kept.Value, want.Value) || !bytes.Equal(kept.Info.MaxKey, want.Info.MaxKey) {
		t.Fatalf("value %q / max key %x changed after Release", kept.Value, kept.Info.MaxKey)
	}
	for i := range want.Pairs {
		if !bytes.Equal(kept.Pairs[i].Key, want.Pairs[i].Key) || !bytes.Equal(kept.Pairs[i].Value, want.Pairs[i].Value) {
			t.Fatalf("pair %d changed after Release: %q=%q", i, kept.Pairs[i].Key, kept.Pairs[i].Value)
		}
	}
}

func mustRequestFrame(t testing.TB, r *Request) []byte {
	t.Helper()
	b, err := AppendRequestFrame(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParseFrameViewsCallerBytes: a frame parsed in memory has no pooled body,
// so its request aliases the caller's bytes and Release leaves them alone.
func TestParseFrameViewsCallerBytes(t *testing.T) {
	frame := mustRequestFrame(t, &Request{ID: 1, Op: OpPut, Keyspace: "ks", Key: []byte("key")})
	h, payload, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	req.Release()
	if string(req.Key) != "key" || &req.Key[0] != &frame[HeaderSize+len("ks")+2] {
		t.Fatalf("key %q does not alias the parsed bytes", req.Key)
	}
}

// getRoundTrip is the steady-state request path of a point get: encode into a
// kept buffer, read the frame into a pooled body, decode views, release.
func getRoundTrip(tb testing.TB, buf []byte, rd *bytes.Reader, req *Request) []byte {
	buf, err := AppendRequestFrame(buf[:0], req)
	if err != nil {
		tb.Fatal(err)
	}
	rd.Reset(buf)
	h, payload, err := ReadFrame(rd)
	if err != nil {
		tb.Fatal(err)
	}
	got, err := DecodeRequest(h, payload)
	if err != nil {
		tb.Fatal(err)
	}
	if got.Keyspace != req.Keyspace || len(got.Key) != len(req.Key) {
		tb.Fatalf("decoded %q/%q", got.Keyspace, got.Key)
	}
	got.Release()
	return buf
}

// TestGetFrameRoundTripAllocs is the allocation budget of the request path:
// encode + ReadFrame + DecodeRequest + Release of a Get allocates nothing once
// the pool is warm.
func TestGetFrameRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	req := &Request{ID: 7, Op: OpGet, Keyspace: "base", Key: bytes.Repeat([]byte{'k'}, 16), Session: 9,
		Trace: TraceContext{TraceID: 1, SpanID: 2}}
	var buf []byte
	rd := bytes.NewReader(nil)
	buf = getRoundTrip(t, buf, rd, req)
	if n := testing.AllocsPerRun(200, func() { buf = getRoundTrip(t, buf, rd, req) }); n != 0 {
		t.Fatalf("get frame round trip: %.1f allocs/op, want 0", n)
	}
}

// BenchmarkFrameRoundTrip encodes, reads and decodes the two frames the remote
// workloads are made of: a point-get request and a 128-pair scan response.
func BenchmarkFrameRoundTrip(b *testing.B) {
	poisonReleased = raceEnabled // measure the release the program runs
	defer func() { poisonReleased = true }()
	req := &Request{ID: 7, Op: OpGet, Keyspace: "base", Key: bytes.Repeat([]byte{'k'}, 16), Session: 9,
		Trace: TraceContext{TraceID: 1, SpanID: 2}}
	resp := &Response{ID: 7, Op: OpScan, Status: StatusOK, Session: 9}
	for i := 0; i < 128; i++ {
		resp.Pairs = append(resp.Pairs, nvme.KVPair{Key: bytes.Repeat([]byte{byte(i)}, 16), Value: bytes.Repeat([]byte{byte(i)}, 128)})
	}
	var reqBuf, respBuf []byte
	rd := bytes.NewReader(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqBuf = getRoundTrip(b, reqBuf, rd, req)
		respBuf = AppendResponseFrames(respBuf[:0], resp, 0)
		rd.Reset(respBuf)
		h, payload, err := ReadFrame(rd)
		if err != nil {
			b.Fatal(err)
		}
		got, err := DecodeResponse(h, payload)
		if err != nil || len(got.Pairs) != len(resp.Pairs) {
			b.Fatalf("decoded %d pairs, err %v", len(got.Pairs), err)
		}
		got.Release()
	}
}
