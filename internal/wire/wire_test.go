package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"kvcsd/internal/compaction"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

func sampleRequest() *Request {
	return &Request{
		ID:       42,
		Op:       OpScan,
		Trace:    TraceContext{TraceID: 0xABCDEF, SpanID: 77},
		Keyspace: "particles",
		Key:      []byte("k1"),
		Value:    []byte("v1"),
		Low:      []byte{0x00, 0x01},
		High:     []byte{0xFF},
		Pairs: []nvme.KVPair{
			{Key: []byte("a"), Value: []byte("va")},
			{Key: []byte("b"), Tombstone: true},
		},
		Index:   nvme.SecondaryIndexSpec{Name: "temp", Offset: 4, Length: 8, Type: 3},
		Indexes: []nvme.SecondaryIndexSpec{{Name: "x", Offset: 0, Length: 4, Type: 1}, {Name: "y", Offset: 4, Length: 4, Type: 2}},
		Limit:   128,
		Parts:   4,
		Device:  2,
	}
}

func sampleResponse() *Response {
	return &Response{
		ID:     42,
		Op:     OpScan,
		Trace:  TraceContext{TraceID: 0xABCDEF, SpanID: 77},
		Status: StatusOK,
		Value:  []byte("value"),
		Exists: true,
		Done:   true,
		Pairs: []nvme.KVPair{
			{Key: []byte("a"), Value: []byte("va")},
			{Key: []byte("b"), Value: []byte("vb")},
			{Key: []byte("c"), Value: nil, Tombstone: true},
		},
		HasInfo: true,
		Info: nvme.KeyspaceInfo{
			Name:       "particles",
			State:      "COMPACTED",
			Pairs:      1234,
			Bytes:      99999,
			MinKey:     []byte{0},
			MaxKey:     []byte{0xFE},
			Secondary:  []string{"temp", "energy"},
			ZoneCount:  7,
			CompactDur: sim.Time(123456789),
		},
		Stats: &StatsReport{
			Devices:      3,
			Commands:     10,
			MediaRead:    20,
			MediaWrite:   30,
			HostToDevice: 40,
			DeviceToHost: 50,
			AppWrite:     60,
			VirtualNanos: 70,
			Health: []DeviceHealth{
				{ID: 0, Down: false, Failures: 0},
				{ID: 1, Down: true, Failures: 5},
			},
			RPC: &RPCReport{
				Ops: []RPCOpStats{
					{Op: OpPut, Count: 10, Errs: 1, DecodeNs: 100, QueueNs: 200, ServiceNs: 300, VirtualNs: 400, WriteNs: 500},
					{Op: OpGet, Count: 20},
				},
				Accepted:  30,
				Shed:      2,
				Refused:   1,
				BadFrames: 0,
				Coalesced: 5,
				Batches:   8,
				SlowOps:   3,
			},
		},
		Report: "recovered",
	}
}

// plainRequest and plainResponse copy a decoded struct without its link to
// the pooled frame body, so it compares equal to one built by hand.
func plainRequest(r *Request) *Request {
	cp := *r
	cp.body = nil
	return &cp
}

func plainResponse(r *Response) *Response {
	cp := *r
	cp.body = nil
	return &cp
}

func TestRequestRoundTrip(t *testing.T) {
	want := sampleRequest()
	var buf bytes.Buffer
	if err := WriteRequest(&buf, want); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	h, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if h.Kind != KindRequest || h.Op != want.Op || h.ID != want.ID {
		t.Fatalf("header mismatch: %+v", h)
	}
	if h.Trace != want.Trace {
		t.Fatalf("trace context mismatch: got %+v, want %+v", h.Trace, want.Trace)
	}
	got, err := DecodeRequest(h, payload)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if !reflect.DeepEqual(plainRequest(got), want) {
		t.Fatalf("request round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestIndexSpecCrossesWhole: a spec's offset and length cross as the ints
// they are, past 32 bits and negative alike, never cut to fit.
func TestIndexSpecCrossesWhole(t *testing.T) {
	spec := nvme.SecondaryIndexSpec{Name: "w", Offset: 1<<32 + 8, Length: -1, Type: 3}
	req := &Request{Op: OpBuildIndex, Keyspace: "k", Index: spec, Indexes: []nvme.SecondaryIndexSpec{spec}}
	got, err := DecodeRequest(Header{Op: req.Op}, EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != spec || len(got.Indexes) != 1 || got.Indexes[0] != spec {
		t.Fatalf("specs %+v %+v, want %+v", got.Index, got.Indexes, spec)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	want := sampleResponse()
	buf := bytes.NewBuffer(AppendResponseFrames(nil, want, 0))
	h, payload, err := ReadFrame(buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := DecodeResponse(h, payload)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if !reflect.DeepEqual(plainResponse(got), want) {
		t.Fatalf("response round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestResponseStreaming(t *testing.T) {
	want := sampleResponse()
	buf := bytes.NewBuffer(AppendResponseFrames(nil, want, 1)) // 1 pair per frame -> 3 frames
	var acc *Response
	frames := 0
	for {
		h, payload, err := ReadFrame(buf)
		if err != nil {
			t.Fatalf("ReadFrame (frame %d): %v", frames, err)
		}
		chunk, err := DecodeResponse(h, payload)
		if err != nil {
			t.Fatalf("DecodeResponse (frame %d): %v", frames, err)
		}
		frames++
		var done bool
		acc, done = Accumulate(acc, chunk)
		chunk.Release() // pair bytes outlive the chunk: its body is handed off
		if done {
			break
		}
	}
	if frames != 3 {
		t.Fatalf("streamed frames = %d, want 3", frames)
	}
	if !reflect.DeepEqual(acc, want) {
		t.Fatalf("streamed accumulate mismatch:\n got %+v\nwant %+v", acc, want)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes after final frame", buf.Len())
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	frame, _ := AppendRequestFrame(nil, &Request{ID: 7, Op: OpGet, Keyspace: "ks", Key: []byte("k")})

	// A flipped bit anywhere in header or payload must fail the CRC.
	for _, off := range []int{6, 7, HeaderSize + 1, len(frame) - TrailerSize - 1} {
		bad := append([]byte(nil), frame...)
		bad[off] ^= 0x40
		if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("bit flip at %d: err = %v, want ErrFrameCorrupt", off, err)
		}
	}

	// Truncation at every boundary must yield EOF-family errors, not panics.
	for cut := 0; cut < len(frame); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(frame[:cut]))
		if err == nil {
			t.Fatalf("truncated at %d: decoded successfully", cut)
		}
		if cut == 0 && !errors.Is(err, io.EOF) {
			t.Fatalf("empty input: err = %v, want io.EOF", err)
		}
	}

	// Wrong magic.
	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err = %v", err)
	}

	// Wrong version.
	bad = append([]byte(nil), frame...)
	bad[4] = 99
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: err = %v", err)
	}

	// Oversized length field (offset 40 in the v4 header).
	bad = append([]byte(nil), frame...)
	bad[40], bad[41], bad[42], bad[43] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length: err = %v", err)
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	h := Header{Kind: KindRequest, Op: OpPut, ID: 1}
	if _, err := DecodeRequest(h, []byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("garbage payload decoded")
	}
	// Trailing bytes after a valid request are rejected.
	payload := EncodeRequest(&Request{ID: 1, Op: OpPut, Keyspace: "ks"})
	if _, err := DecodeRequest(h, append(payload, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Unknown opcode.
	if _, err := DecodeRequest(Header{Kind: KindRequest, Op: Op(200), ID: 1}, payload); err == nil {
		t.Fatal("unknown opcode accepted")
	}
}

// TestWaitFlag: the wait flag rides in the header flags byte next to the lane
// bits, adds no payload byte, survives a round trip on the two status verbs
// and is refused on every other verb.
func TestWaitFlag(t *testing.T) {
	for _, op := range Ops() {
		req := &Request{ID: 7, Op: op, Keyspace: "ks", Lane: LaneOverride(LaneBulk), Wait: true}
		frame, err := AppendRequestFrame(nil, req)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		h, payload, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if h.Flags&FlagWait == 0 || laneFromFlags(h.Flags) != req.Lane {
			t.Fatalf("%s: flags %#x", op, h.Flags)
		}
		req.Wait = false
		if plain := EncodeRequest(req); !bytes.Equal(payload, plain) {
			t.Fatalf("%s: wait flag changed the payload", op)
		}
		got, err := DecodeRequest(h, payload)
		if op != OpCompactStatus && op != OpIndexStatus {
			if !errors.Is(err, ErrDecode) {
				t.Errorf("%s with the wait flag decoded (err %v)", op, err)
			}
			continue
		}
		if err != nil || !got.Wait || got.Lane != req.Lane {
			t.Fatalf("%s: decoded %+v, err %v", op, got, err)
		}
		got.Release()
	}
}

func TestStatusMapping(t *testing.T) {
	for _, ns := range []nvme.Status{nvme.StatusOK, nvme.StatusNotFound, nvme.StatusNoSpace, nvme.StatusPoweredOff} {
		ws := FromNVMe(ns)
		back, ok := ws.NVMe()
		if !ok || back != ns {
			t.Fatalf("nvme status %v did not round trip (got %v, ok=%v)", ns, back, ok)
		}
	}
	if _, ok := StatusOverloaded.NVMe(); ok {
		t.Fatal("transport status mapped to nvme")
	}
	if !errors.Is(StatusOverloaded.Err(), ErrOverloaded) {
		t.Fatal("StatusOverloaded.Err is not ErrOverloaded")
	}
	if StatusOK.Err() != nil {
		t.Fatal("StatusOK.Err should be nil")
	}
}

// TestVerbTableGolden pins every row of the verb table — name, NVMe opcode,
// idempotency, default lane — against testdata/verbs.golden, which was
// recorded from the four per-verb switches (opNames, NVMe, Idempotent,
// LaneOf) the table replaced. A new verb adds a line; an existing line must
// never change without a protocol version bump.
func TestVerbTableGolden(t *testing.T) {
	var b strings.Builder
	for _, o := range Ops() {
		if !o.Valid() {
			t.Errorf("Ops() lists %d, which is not Valid()", uint8(o))
		}
		fmt.Fprintf(&b, "%d %s nvme=%d/%s idempotent=%v lane=%s\n",
			uint8(o), o, uint8(o.NVMe()), o.NVMe(), o.Idempotent(), LaneOf(o))
	}
	want, err := os.ReadFile("testdata/verbs.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("verb table drifted from testdata/verbs.golden:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
	for _, o := range []Op{0, opMax, 255} {
		if o.Valid() || o.Idempotent() || o.NVMe() != nvme.OpKeyspaceInfo || LaneOf(o) != LaneNormal ||
			o.String() != fmt.Sprintf("Op(%d)", uint8(o)) {
			t.Errorf("unknown opcode %d must be invalid, non-idempotent, normal-lane and unnamed", uint8(o))
		}
	}
}

// TestListBoundsAcceptSmallestItems encodes every list in a payload with many
// copies of its smallest legal item and decodes it. A list count may not
// exceed what the bytes after it can hold at the decoder's minimum item size,
// so a minimum set above the real one refuses these payloads.
func TestListBoundsAcceptSmallestItems(t *testing.T) {
	const n = 256
	stats := func(s StatsReport) *Response { return &Response{Op: OpStats, Stats: &s} }
	for _, tc := range []struct {
		name string
		req  *Request
		resp *Response
	}{
		{name: "request pairs", req: &Request{Pairs: make([]nvme.KVPair, n)}},
		{name: "index specs", req: &Request{Indexes: make([]nvme.SecondaryIndexSpec, n)}},
		{name: "replica entries", req: &Request{Replica: &ReplicaMsg{Entries: make([]ReplicaEntry, n)}}},
		{name: "replica sessions", req: &Request{Replica: &ReplicaMsg{Sessions: make([]ReplicaSession, n)}}},
		{name: "entry members", req: &Request{Replica: &ReplicaMsg{Entries: []ReplicaEntry{{Members: make([]uint32, n)}}}}},
		{name: "response pairs", resp: &Response{Pairs: make([]nvme.KVPair, n)}},
		{name: "secondaries", resp: &Response{HasInfo: true, Info: nvme.KeyspaceInfo{Secondary: make([]string, n)}}},
		{name: "health", resp: stats(StatsReport{Health: make([]DeviceHealth, n)})},
		{name: "rpc ops", resp: stats(StatsReport{RPC: &RPCReport{Ops: make([]RPCOpStats, n)}})},
		{name: "tenants", resp: stats(StatsReport{Tenants: make([]TenantStats, n)})},
		{name: "lanes", resp: stats(StatsReport{Tenants: []TenantStats{{Lanes: make([]LaneStats, n)}}})},
		{name: "compactions", resp: stats(StatsReport{Compactions: make([]compaction.KeyspaceProgress, n)})},
		{name: "ring", resp: stats(StatsReport{Ring: make([]RingEntry, n)})},
		{name: "ring members", resp: stats(StatsReport{Ring: []RingEntry{{Members: make([]uint32, n)}}})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var payload, again []byte
			if tc.req != nil {
				tc.req.Op = OpPut
				payload = EncodeRequest(tc.req)
				r, err := DecodeRequest(Header{Kind: KindRequest, Op: OpPut}, payload)
				if err != nil {
					t.Fatal(err)
				}
				again = EncodeRequest(r)
			} else {
				payload = EncodeResponse(tc.resp)
				r, err := DecodeResponse(Header{Kind: KindResponse, Op: tc.resp.Op}, payload)
				if err != nil {
					t.Fatal(err)
				}
				again = EncodeResponse(r)
			}
			if !bytes.Equal(again, payload) {
				t.Fatal("decoded payload re-encodes differently")
			}
		})
	}
}
