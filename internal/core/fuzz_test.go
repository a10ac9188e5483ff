package core

import (
	"bytes"
	"testing"
	"unsafe"
)

// FuzzFrameReplayable drives the crash-recovery roll-forward gate with
// arbitrary frame payloads. It must never panic and must accept a payload
// only when the payload is a whole number of records — which the round-trip
// check verifies by re-encoding the decoded stream.
func FuzzFrameReplayable(f *testing.F) {
	kc := klogCodec{}
	var sep []byte
	sep = kc.Encode(sep, klogEntry{key: []byte("key-1"), vlen: 16, vlogOff: 0})
	sep = kc.Encode(sep, klogEntry{key: []byte("key-2"), vlen: tombstoneVlen, vlogOff: 16})
	var comb []byte
	comb = pairCodec{}.Encode(comb, pairRec{key: []byte("k"), value: []byte("v"), seq: 7})

	f.Add([]byte(nil), false, int64(0))
	f.Add(sep, false, int64(1<<20))
	f.Add(sep[:len(sep)-5], false, int64(1<<20)) // torn record: must reject
	f.Add(sep, false, int64(8))                  // values past VLOG solid prefix: must reject
	f.Add(comb, true, int64(0))
	f.Add(comb[:len(comb)-1], true, int64(0)) // torn combined record: must reject

	f.Fuzz(func(t *testing.T, payload []byte, combined bool, vSolid int64) {
		if !frameReplayable(payload, combined, vSolid) {
			return
		}
		// Accepted payloads must decode as a whole number of records whose
		// canonical re-encoding is byte-identical to the payload.
		var reenc []byte
		if combined {
			codec := pairCodec{}
			for pos := 0; pos < len(payload); {
				r, n, err := codec.Decode(payload[pos:], true)
				if err != nil || n == 0 {
					t.Fatalf("accepted combined payload fails decode at %d: n=%d err=%v", pos, n, err)
				}
				reenc = codec.Encode(reenc, r)
				pos += n
			}
		} else {
			for pos := 0; pos < len(payload); {
				r, n, err := kc.Decode(payload[pos:], true)
				if err != nil || n == 0 {
					t.Fatalf("accepted separated payload fails decode at %d: n=%d err=%v", pos, n, err)
				}
				if !r.isTombstone() && int64(r.vlogOff)+int64(r.vlen) > vSolid {
					t.Fatalf("accepted record references VLOG bytes past the solid prefix")
				}
				reenc = kc.Encode(reenc, r)
				pos += n
			}
		}
		if !bytes.Equal(reenc, payload) {
			t.Fatalf("accepted payload is not canonical: %d bytes re-encode to %d", len(payload), len(reenc))
		}
	})
}

// checkView fails unless field is a view of data[:n] whose capacity ends
// where it does, so that appending to it cannot write over what follows.
func checkView(t *testing.T, codec string, field, data []byte, n int) {
	t.Helper()
	if cap(field) != len(field) {
		t.Fatalf("%s: field of %d bytes has capacity %d", codec, len(field), cap(field))
	}
	if len(field) == 0 {
		return
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(field)))
	if at < base || at+uintptr(len(field)) > base+uintptr(n) {
		t.Fatalf("%s: field of %d bytes is not inside the %d bytes consumed", codec, len(field), n)
	}
}

// FuzzRecordCodecs feeds arbitrary bytes to every log-record codec. Each
// Decode must never panic; on success it must consume a positive, in-bounds
// byte count, every byte field must be a clipped view of the consumed bytes,
// and the record must round-trip through Encode to the exact consumed bytes
// (the codecs are canonical).
func FuzzRecordCodecs(f *testing.F) {
	kc := klogCodec{}
	f.Add(kc.Encode(nil, klogEntry{key: []byte("key"), vlen: 9, vlogOff: 42}))
	f.Add(destCodec{}.Encode(nil, destEntry{vlogOff: 1, destOff: 2, vlen: 3}))
	f.Add(valueCodec{}.Encode(nil, valueRec{destOff: 5, value: []byte("payload")}))
	f.Add(sidxCodec{}.Encode(nil, sidxEntry{skey: []byte("sk"), pkey: []byte("pk"), svOff: 8, vlen: 4}))
	f.Add(pairCodec{}.Encode(nil, pairRec{key: []byte("key"), value: []byte("value"), seq: 9}))
	torn := kc.Encode(nil, klogEntry{key: []byte("longer-key-torn"), vlen: 1, vlogOff: 1})
	f.Add(torn[:len(torn)-4]) // torn record

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, atEOF := range []bool{false, true} {
			if e, n, err := (klogCodec{}).Decode(data, atEOF); err == nil && n > 0 {
				if n > len(data) {
					t.Fatalf("klog consumed %d of %d bytes", n, len(data))
				}
				checkView(t, "klog key", e.key, data, n)
				if enc := (klogCodec{}).Encode(nil, e); !bytes.Equal(enc, data[:n]) {
					t.Fatalf("klog round-trip mismatch for %d consumed bytes", n)
				}
			}
			if e, n, err := (destCodec{}).Decode(data, atEOF); err == nil && n > 0 {
				if n > len(data) {
					t.Fatalf("dest consumed %d of %d bytes", n, len(data))
				}
				if enc := (destCodec{}).Encode(nil, e); !bytes.Equal(enc, data[:n]) {
					t.Fatalf("dest round-trip mismatch for %d consumed bytes", n)
				}
			}
			if r, n, err := (valueCodec{}).Decode(data, atEOF); err == nil && n > 0 {
				if n > len(data) {
					t.Fatalf("value consumed %d of %d bytes", n, len(data))
				}
				checkView(t, "value", r.value, data, n)
				if enc := (valueCodec{}).Encode(nil, r); !bytes.Equal(enc, data[:n]) {
					t.Fatalf("value round-trip mismatch for %d consumed bytes", n)
				}
			}
			if e, n, err := (sidxCodec{}).Decode(data, atEOF); err == nil && n > 0 {
				if n > len(data) {
					t.Fatalf("sidx consumed %d of %d bytes", n, len(data))
				}
				checkView(t, "sidx skey", e.skey, data, n)
				checkView(t, "sidx pkey", e.pkey, data, n)
				if enc := (sidxCodec{}).Encode(nil, e); !bytes.Equal(enc, data[:n]) {
					t.Fatalf("sidx round-trip mismatch for %d consumed bytes", n)
				}
			}
			if r, n, err := (pairCodec{}).Decode(data, atEOF); err == nil && n > 0 {
				if n > len(data) {
					t.Fatalf("pair consumed %d of %d bytes", n, len(data))
				}
				checkView(t, "pair key", r.key, data, n)
				checkView(t, "pair value", r.value, data, n)
				if enc := (pairCodec{}).Encode(nil, r); !bytes.Equal(enc, data[:n]) {
					t.Fatalf("pair round-trip mismatch for %d consumed bytes", n)
				}
			}
		}
	})
}
