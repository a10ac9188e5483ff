package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"kvcsd/internal/codec"
)

// End-to-end integrity model (DESIGN.md §11). Every persisted extent is
// checksummed: KLOG flush batches carry per-frame CRCs (frames.go), the
// metadata snapshots carry their own (keyspace.go), and — from this layer —
// every zone cluster keeps a CRC32-C per flushed BlockBytes granule, so
// PIDX/SIDX blocks, SORTED_VALUES and the VLOG verify on every media read.
// A mismatch turns silently poisoned bytes into a typed *CorruptionError
// carrying zone/extent attribution, which the device maps to
// nvme.StatusCorrupted and the array uses to fail over and repair.

// ErrCorrupted is the sentinel all corruption detections match with
// errors.Is. The concrete error is *CorruptionError.
var ErrCorrupted = errors.New("core: checksum mismatch (data corrupted)")

// castagnoli is the CRC32-C table shared by granule checksums and block
// headers (same polynomial as the wire framing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptionError attributes a checksum mismatch to a specific extent: the
// cluster (by type and id), the granule within it, and the physical zone and
// in-zone offset the granule maps to. Keyspace is filled by the layer that
// knows it (query path, scrubber); empty from raw cluster reads.
type CorruptionError struct {
	Keyspace string
	Type     ZoneType
	Cluster  int64
	Granule  int64
	Zone     int
	ZoneOff  int64
}

// Error renders the attribution.
func (e *CorruptionError) Error() string {
	ks := e.Keyspace
	if ks == "" {
		ks = "?"
	}
	return fmt.Sprintf("core: corrupted %s granule %d (keyspace %s, cluster %d, zone %d off %d)",
		e.Type, e.Granule, ks, e.Cluster, e.Zone, e.ZoneOff)
}

// Is makes errors.Is(err, ErrCorrupted) match.
func (e *CorruptionError) Is(target error) bool { return target == ErrCorrupted }

// ExtentKind names which cluster of a keyspace an extent belongs to, in the
// device-command encoding shared with nvme/array.
type ExtentKind uint8

// Extent kinds.
const (
	ExtentKLOG ExtentKind = iota + 1
	ExtentVLOG
	ExtentPIDX
	ExtentSorted
	ExtentSIDX
)

// String names the kind.
func (k ExtentKind) String() string {
	switch k {
	case ExtentKLOG:
		return "klog"
	case ExtentVLOG:
		return "vlog"
	case ExtentPIDX:
		return "pidx"
	case ExtentSorted:
		return "sorted"
	case ExtentSIDX:
		return "sidx"
	}
	return fmt.Sprintf("ExtentKind(%d)", uint8(k))
}

// ExtentRef names one checksummed granule of one keyspace cluster — the unit
// of scrub reporting and replica repair. Compaction is deterministic, so the
// logical content at an (keyspace, kind, index, granule) address is identical
// on every replica even though the physical zone layout differs; that is what
// makes cross-replica extent repair possible.
type ExtentRef struct {
	Keyspace string
	Kind     ExtentKind
	// Index is the secondary-index name for ExtentSIDX extents, "" otherwise.
	Index   string
	Granule int64
	// Zone is the physical zone on the reporting device (attribution only;
	// not meaningful on other replicas).
	Zone int32
}

// ScrubReport summarizes one media-scrub pass.
type ScrubReport struct {
	// Keyspaces is how many keyspaces were walked.
	Keyspaces int32
	// ScannedBytes is how many flushed bytes were read back and verified.
	ScannedBytes int64
	// Corrupt lists every granule whose checksum failed.
	Corrupt []ExtentRef
	// Repaired counts extents rewritten from a healthy copy (repair passes
	// only; plain scrubs leave it zero).
	Repaired int32
	// Quarantined counts zones retired from allocation by this pass.
	Quarantined int32
}

// String renders a one-line summary.
func (r *ScrubReport) String() string {
	return fmt.Sprintf("scrub: %d keyspaces, %d bytes scanned, %d corrupt extents, %d repaired, %d zones quarantined",
		r.Keyspaces, r.ScannedBytes, len(r.Corrupt), r.Repaired, r.Quarantined)
}

// --- Binary codec -----------------------------------------------------------
//
// Scrub reports and extent refs cross the device command boundary as opaque
// bytes (nvme.Completion.Value / Command.Value), so they need a deliberate
// binary form: u16-length-prefixed strings, fixed-width integers, and a
// trailing CRC32-C over the body so a mangled report is rejected, not misread.
// Decoding follows internal/codec's rules.

const scrubReportMagic = 0x4b565352 // "KVSR"

// minExtentRef is the smallest encoded extent ref: two empty strings, the
// kind, the granule and the zone.
const minExtentRef = 2 + 1 + 2 + 8 + 4

// appendExtentRef appends the wire form of one extent ref.
func appendExtentRef(dst []byte, e ExtentRef) []byte {
	dst = appendString(dst, e.Keyspace)
	dst = append(dst, byte(e.Kind))
	dst = appendString(dst, e.Index)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Granule))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Zone))
	return dst
}

func decodeExtentRef(d *codec.Decoder) ExtentRef {
	return ExtentRef{
		Keyspace: string(d.Take(int(d.U16()))),
		Kind:     ExtentKind(d.U8()),
		Index:    string(d.Take(int(d.U16()))),
		Granule:  int64(d.U64()),
		Zone:     int32(d.U32()),
	}
}

// ErrBadScrubReport reports an undecodable scrub-report payload.
var ErrBadScrubReport = errors.New("core: bad scrub report encoding")

// EncodeScrubReport renders a report as self-checking bytes.
func EncodeScrubReport(r *ScrubReport) []byte {
	body := make([]byte, 0, 64+len(r.Corrupt)*32)
	body = binary.LittleEndian.AppendUint32(body, uint32(r.Keyspaces))
	body = binary.LittleEndian.AppendUint64(body, uint64(r.ScannedBytes))
	body = binary.LittleEndian.AppendUint32(body, uint32(r.Repaired))
	body = binary.LittleEndian.AppendUint32(body, uint32(r.Quarantined))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(r.Corrupt)))
	for _, e := range r.Corrupt {
		body = appendExtentRef(body, e)
	}
	out := make([]byte, 0, 8+len(body)+4)
	out = binary.LittleEndian.AppendUint32(out, scrubReportMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
	return out
}

// DecodeScrubReport parses and verifies an encoded report.
func DecodeScrubReport(data []byte) (*ScrubReport, error) {
	d := codec.NewDecoder(data)
	magic := d.U32()
	body := d.Take(int(d.U32()))
	sum := d.U32()
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadScrubReport, err)
	}
	if magic != scrubReportMagic || crc32.Checksum(body, castagnoli) != sum {
		return nil, ErrBadScrubReport
	}
	d = codec.NewDecoder(body)
	r := &ScrubReport{
		Keyspaces:    int32(d.U32()),
		ScannedBytes: int64(d.U64()),
		Repaired:     int32(d.U32()),
		Quarantined:  int32(d.U32()),
	}
	for range d.Fit(uint64(d.U32()), minExtentRef) {
		r.Corrupt = append(r.Corrupt, decodeExtentRef(&d))
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadScrubReport, err)
	}
	return r, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}
