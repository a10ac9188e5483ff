package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"kvcsd/internal/codec"
)

// FuzzScrubReportDecode feeds arbitrary bytes to the scrub-report codec,
// extent refs included. The decoder must never panic, must reject mangled
// payloads (the CRC trailer's job), and every accepted payload must re-encode
// to the exact bytes it was decoded from — the codec is canonical, so a report
// surviving the decoder IS the report the device sent.
func FuzzScrubReportDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeScrubReport(&ScrubReport{}))
	f.Add(EncodeScrubReport(&ScrubReport{Keyspaces: 2, ScannedBytes: 1 << 20, Repaired: 1, Quarantined: 1}))
	full := EncodeScrubReport(&ScrubReport{
		Keyspaces:    3,
		ScannedBytes: 12345,
		Corrupt: []ExtentRef{
			{Keyspace: "data#p0", Kind: ExtentSorted, Granule: 7, Zone: 42},
			{Keyspace: "data#p1", Kind: ExtentSIDX, Index: "by-suffix", Granule: 0, Zone: 3},
		},
	})
	f.Add(full)
	f.Add(full[:len(full)-3]) // truncated CRC: must reject
	flipped := append([]byte(nil), full...)
	flipped[10] ^= 0x40 // body bit flip: CRC must catch it
	f.Add(flipped)
	for _, e := range []ExtentRef{
		{Keyspace: "ks", Kind: ExtentVLOG, Granule: 9, Zone: 1},
		{Keyspace: "", Kind: ExtentKLOG},
		{Keyspace: "s", Kind: ExtentSIDX, Index: "idx", Granule: -1, Zone: -2},
	} {
		f.Add(EncodeScrubReport(&ScrubReport{Corrupt: []ExtentRef{e}}))
	}
	// Bodies under a valid CRC: one extent ref whose keyspace length runs
	// past the body, and a body that ends inside the fixed fields.
	framed := func(body []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, scrubReportMagic)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
		return binary.LittleEndian.AppendUint32(append(b, body...), crc32.Checksum(body, castagnoli))
	}
	f.Add(framed(append(make([]byte, 20), 1, 0, 0, 0, 0xff, 0xff)))
	f.Add(framed(make([]byte, 20)))
	f.Add(append(EncodeScrubReport(&ScrubReport{}), 0xff, 0xff)) // trailing bytes: must reject

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeScrubReport(data)
		if err != nil {
			return
		}
		if reenc := EncodeScrubReport(r); !bytes.Equal(reenc, data) {
			t.Fatalf("accepted %d-byte report is not canonical: re-encodes to %d different bytes", len(data), len(reenc))
		}
	})
}

// FuzzExtentRefDecode drives the extent-ref codec alone with arbitrary bytes:
// no panics, at least minExtentRef bytes consumed (the report's list bound
// relies on it), and canonical round-trips for everything accepted.
func FuzzExtentRefDecode(f *testing.F) {
	f.Add(appendExtentRef(nil, ExtentRef{Keyspace: "ks", Kind: ExtentVLOG, Granule: 9, Zone: 1}))
	f.Add(appendExtentRef(nil, ExtentRef{Keyspace: "", Kind: ExtentKLOG}))
	f.Add(appendExtentRef(nil, ExtentRef{Keyspace: "s", Kind: ExtentSIDX, Index: "idx", Granule: -1, Zone: -2}))
	f.Add([]byte{0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := codec.NewDecoder(data)
		e := decodeExtentRef(&d)
		rest := d.Take(d.Len())
		if d.Done() != nil {
			return
		}
		n := len(data) - len(rest)
		if n < minExtentRef {
			t.Fatalf("consumed %d bytes, under the %d-byte minimum", n, minExtentRef)
		}
		if reenc := appendExtentRef(nil, e); !bytes.Equal(reenc, data[:n]) {
			t.Fatalf("extent ref round-trip mismatch over %d consumed bytes", n)
		}
	})
}
