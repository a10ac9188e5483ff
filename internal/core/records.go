package core

import (
	"encoding/binary"
	"fmt"
)

// klogEntry is one record of the unsorted key log: the key plus a pointer to
// its value in the VLOG stream (key-value separation, paper Figure 5).
// A vlen of tombstoneVlen marks a deletion: the key and everything older
// under it vanish at compaction.
type klogEntry struct {
	key     []byte
	vlen    uint32
	vlogOff uint64
}

// tombstoneVlen is the vlen sentinel marking a deletion record.
const tombstoneVlen = ^uint32(0)

// isTombstone reports whether the entry is a deletion marker.
func (e klogEntry) isTombstone() bool { return e.vlen == tombstoneVlen }

// Every codec's Decode returns a record whose byte fields are views of its
// input, each clipped to its own length by a full slice expression so that
// appending to one cannot write over the bytes after it. A decoded record is
// therefore valid only as long as the bytes it was decoded from; see
// recordSource for how long that is and who copies.

// klogCodec serializes klog entries:
// klen u16 | vlen u32 | vlogOff u64 | key.
type klogCodec struct{}

func (klogCodec) Encode(dst []byte, e klogEntry) []byte {
	var hdr [14]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(len(e.key)))
	binary.LittleEndian.PutUint32(hdr[2:], e.vlen)
	binary.LittleEndian.PutUint64(hdr[6:], e.vlogOff)
	dst = append(dst, hdr[:]...)
	return append(dst, e.key...)
}

func (klogCodec) Decode(data []byte, atEOF bool) (klogEntry, int, error) {
	if len(data) < 14 {
		if atEOF && len(data) > 0 {
			return klogEntry{}, 0, fmt.Errorf("%w: short klog header", ErrRecordCorrupt)
		}
		return klogEntry{}, 0, nil
	}
	klen := int(binary.LittleEndian.Uint16(data))
	if len(data) < 14+klen {
		if atEOF {
			return klogEntry{}, 0, fmt.Errorf("%w: short klog key", ErrRecordCorrupt)
		}
		return klogEntry{}, 0, nil
	}
	n := 14 + klen
	return klogEntry{
		vlen:    binary.LittleEndian.Uint32(data[2:]),
		vlogOff: binary.LittleEndian.Uint64(data[6:]),
		key:     data[14:n:n],
	}, n, nil
}

func (klogCodec) SizeHint(e klogEntry) int { return 14 + len(e.key) + 24 }

// destEntry maps a value's VLOG position to its destination offset in
// SORTED_VALUES — the inverse permutation used to sort values with
// sequential I/O only.
type destEntry struct {
	vlogOff uint64
	destOff uint64
	vlen    uint32
}

const destEntrySize = 20

// destCodec serializes destination entries (fixed 20 bytes).
type destCodec struct{}

func (destCodec) Encode(dst []byte, e destEntry) []byte {
	var b [destEntrySize]byte
	binary.LittleEndian.PutUint64(b[0:], e.vlogOff)
	binary.LittleEndian.PutUint64(b[8:], e.destOff)
	binary.LittleEndian.PutUint32(b[16:], e.vlen)
	return append(dst, b[:]...)
}

func (destCodec) Decode(data []byte, atEOF bool) (destEntry, int, error) {
	if len(data) < destEntrySize {
		if atEOF && len(data) > 0 {
			return destEntry{}, 0, fmt.Errorf("%w: short dest entry", ErrRecordCorrupt)
		}
		return destEntry{}, 0, nil
	}
	return destEntry{
		vlogOff: binary.LittleEndian.Uint64(data[0:]),
		destOff: binary.LittleEndian.Uint64(data[8:]),
		vlen:    binary.LittleEndian.Uint32(data[16:]),
	}, destEntrySize, nil
}

func (destCodec) SizeHint(destEntry) int { return destEntrySize + 16 }

// valueRec carries a value tagged with its destination offset from the VLOG
// scan to the value bucket that places it.
type valueRec struct {
	destOff uint64
	value   []byte
}

// valueCodec serializes value records: destOff u64 | vlen u32 | bytes.
type valueCodec struct{}

// valueHeaderBytes is the length of a value record's destOff and vlen.
const valueHeaderBytes = 12

func (valueCodec) Encode(dst []byte, r valueRec) []byte {
	var hdr [valueHeaderBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:], r.destOff)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(r.value)))
	dst = append(dst, hdr[:]...)
	return append(dst, r.value...)
}

func (valueCodec) Decode(data []byte, atEOF bool) (valueRec, int, error) {
	if len(data) < 12 {
		if atEOF && len(data) > 0 {
			return valueRec{}, 0, fmt.Errorf("%w: short value header", ErrRecordCorrupt)
		}
		return valueRec{}, 0, nil
	}
	vlen := int(binary.LittleEndian.Uint32(data[8:]))
	if len(data) < 12+vlen {
		if atEOF {
			return valueRec{}, 0, fmt.Errorf("%w: short value body", ErrRecordCorrupt)
		}
		return valueRec{}, 0, nil
	}
	return valueRec{
		destOff: binary.LittleEndian.Uint64(data[0:]),
		value:   data[12 : 12+vlen : 12+vlen],
	}, 12 + vlen, nil
}

func (valueCodec) SizeHint(r valueRec) int { return 12 + len(r.value) + 24 }

// sidxEntry is one secondary-index record: the extracted (order-preserving)
// secondary key, the primary key, and the value's location in SORTED_VALUES.
type sidxEntry struct {
	skey  []byte
	pkey  []byte
	svOff uint64
	vlen  uint32
}

// sidxCodec serializes secondary entries:
// sklen u16 | pklen u16 | vlen u32 | svOff u64 | skey | pkey.
type sidxCodec struct{}

func (sidxCodec) Encode(dst []byte, e sidxEntry) []byte {
	var hdr [16]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(len(e.skey)))
	binary.LittleEndian.PutUint16(hdr[2:], uint16(len(e.pkey)))
	binary.LittleEndian.PutUint32(hdr[4:], e.vlen)
	binary.LittleEndian.PutUint64(hdr[8:], e.svOff)
	dst = append(dst, hdr[:]...)
	dst = append(dst, e.skey...)
	return append(dst, e.pkey...)
}

func (sidxCodec) Decode(data []byte, atEOF bool) (sidxEntry, int, error) {
	if len(data) < 16 {
		if atEOF && len(data) > 0 {
			return sidxEntry{}, 0, fmt.Errorf("%w: short sidx header", ErrRecordCorrupt)
		}
		return sidxEntry{}, 0, nil
	}
	sklen := int(binary.LittleEndian.Uint16(data[0:]))
	pklen := int(binary.LittleEndian.Uint16(data[2:]))
	if len(data) < 16+sklen+pklen {
		if atEOF {
			return sidxEntry{}, 0, fmt.Errorf("%w: short sidx keys", ErrRecordCorrupt)
		}
		return sidxEntry{}, 0, nil
	}
	sk, n := 16+sklen, 16+sklen+pklen
	return sidxEntry{
		vlen:  binary.LittleEndian.Uint32(data[4:]),
		svOff: binary.LittleEndian.Uint64(data[8:]),
		skey:  data[16:sk:sk],
		pkey:  data[sk:n:n],
	}, n, nil
}

func (sidxCodec) SizeHint(e sidxEntry) int { return 16 + len(e.skey) + len(e.pkey) + 48 }

// pidxEntry is one primary-index record stored in PIDX blocks:
// klen u16 | vlen u32 | svOff u64 | key. It reuses klogEntry's layout with
// vlogOff reinterpreted as the offset into SORTED_VALUES.
type pidxEntry = klogEntry
