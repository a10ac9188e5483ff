package wire

import (
	"bytes"
	"reflect"
	"testing"

	"kvcsd/internal/nvme"
)

// copyingDecodeRequest and copyingDecodeResponse are the reference the view
// decoder is held to: the payload is copied first and decoded from the private
// copy with no pooled body, which is what the decoder did field by field
// before byte fields became views.
func copyingDecodeRequest(h Header, payload []byte) (*Request, error) {
	h.body = nil
	return DecodeRequest(h, bytes.Clone(payload))
}

func copyingDecodeResponse(h Header, payload []byte) (*Response, error) {
	h.body = nil
	return DecodeResponse(h, bytes.Clone(payload))
}

// FuzzFrameDecode holds the whole receive path — frame reader plus both
// payload decoders — to the no-panic contract: torn, truncated, or
// bit-flipped frames must surface as errors, never crash a server or client.
// A frame that decodes must decode to the same struct as views into the pooled
// body and as a copying decode, must parse the same from memory (ParseFrame),
// and must re-encode to exactly its payload (the codec is canonical), so the
// fuzzer also guards codec asymmetries.
func FuzzFrameDecode(f *testing.F) {
	// Seed with valid frames of both kinds...
	seed := func(r *Request) []byte {
		b, err := AppendRequestFrame(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(&Request{ID: 1, Op: OpPut, Keyspace: "ks", Key: []byte("k"), Value: []byte("v")}))
	f.Add(seed(&Request{ID: 9, Op: OpScan, Keyspace: "ks", Low: []byte{1}, High: []byte{2}, Limit: 10}))
	f.Add(seed(&Request{ID: 10, Op: OpIndexStatus, Keyspace: "ks", Index: nvme.SecondaryIndexSpec{Name: "ix"}, Wait: true}))
	resp := &Response{ID: 2, Op: OpScan, Status: StatusOK,
		Pairs: []nvme.KVPair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Tombstone: true}}}
	f.Add(AppendFrameFull(nil, KindResponse, OpScan, FlagMore, 2, TraceContext{}, 0, EncodeResponse(resp)))
	f.Add(AppendResponseFrames(nil, &Response{ID: 3, Op: OpStats, Status: StatusOK,
		Stats: &StatsReport{Devices: 2, Health: []DeviceHealth{{ID: 1, Down: true, Failures: 3}}}}, 0))
	// ...and corrupted variants: torn, bit-flipped, truncated header.
	torn := seed(&Request{ID: 4, Op: OpGet, Keyspace: "ks"})
	f.Add(torn[:len(torn)-6])
	flipped := append([]byte(nil), torn...)
	flipped[HeaderSize] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{0x4B, 0x43})
	f.Add([]byte{})
	// An overlong uvarint: the keyspace name's length 0 written as 0x80 0x00.
	overlong := append([]byte{0x80}, EncodeRequest(&Request{Op: OpGet})...)
	f.Add(AppendFrameFull(nil, KindRequest, OpGet, 0, 5, TraceContext{}, 0, overlong))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := ReadFrame(bytes.NewReader(data))
		ph, ppayload, perr := ParseFrame(data)
		if (err == nil) != (perr == nil) {
			t.Fatalf("ReadFrame err = %v, ParseFrame err = %v", err, perr)
		}
		if err != nil {
			return // rejected cleanly — the contract
		}
		body := h.body
		h.body = nil
		if h != ph || !bytes.Equal(payload, ppayload) {
			t.Fatalf("ParseFrame disagrees with ReadFrame: %+v vs %+v", ph, h)
		}
		h.body = body
		switch h.Kind {
		case KindRequest:
			ref, referr := copyingDecodeRequest(h, payload)
			req, derr := DecodeRequest(h, payload)
			if (derr == nil) != (referr == nil) {
				t.Fatalf("view decode err = %v, copying decode err = %v", derr, referr)
			}
			if derr != nil {
				return
			}
			if !reflect.DeepEqual(plainRequest(req), ref) {
				t.Fatalf("view decode differs from copying decode:\n got %+v\nwant %+v", req, ref)
			}
			re, rerr := AppendRequestFrame(nil, req)
			req.Release()
			if rerr != nil {
				t.Fatalf("re-encode: %v", rerr)
			}
			h2, p2, rerr := ReadFrame(bytes.NewReader(re))
			if rerr != nil {
				t.Fatalf("re-encoded request frame rejected: %v", rerr)
			}
			if !bytes.Equal(p2, ppayload) {
				t.Fatalf("request payload %x re-encodes to %x", ppayload, p2)
			}
			req2, derr2 := DecodeRequest(h2, p2)
			if derr2 != nil {
				t.Fatalf("re-encoded request payload rejected: %v", derr2)
			}
			req2.Release()
		case KindResponse:
			ref, referr := copyingDecodeResponse(h, payload)
			resp, derr := DecodeResponse(h, payload)
			if (derr == nil) != (referr == nil) {
				t.Fatalf("view decode err = %v, copying decode err = %v", derr, referr)
			}
			if derr != nil {
				return
			}
			if !reflect.DeepEqual(plainResponse(resp), ref) {
				t.Fatalf("view decode differs from copying decode:\n got %+v\nwant %+v", resp, ref)
			}
			kept := resp.Detach()
			// The byte fields belong to the caller now and must have survived
			// the (poisoned) release.
			if !reflect.DeepEqual(plainResponse(&kept), ref) {
				t.Fatalf("response bytes changed by Release:\n got %+v\nwant %+v", kept, ref)
			}
			re := AppendFrameFull(nil, KindResponse, kept.Op, h.Flags, kept.ID, kept.Trace, kept.Session, EncodeResponse(&kept))
			h2, p2, rerr := ReadFrame(bytes.NewReader(re))
			if rerr != nil {
				t.Fatalf("re-encoded response frame rejected: %v", rerr)
			}
			if !bytes.Equal(p2, ppayload) {
				t.Fatalf("response payload %x re-encodes to %x", ppayload, p2)
			}
			resp2, derr2 := DecodeResponse(h2, p2)
			if derr2 != nil {
				t.Fatalf("re-encoded response payload rejected: %v", derr2)
			}
			resp2.Release()
		}
	})
}
