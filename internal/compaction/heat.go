package compaction

import (
	"encoding/binary"
	"math"

	"kvcsd/internal/codec"
)

// HeatTable tracks per-granule read heat on a keyspace's sorted cluster.
// Foreground Get/Scan paths Touch the granules they read; the cold-migration
// scan asks which granules stayed cold since the table was last decayed, and
// the engine halves every counter after each migration pass so old heat ages
// out instead of pinning data hot forever.
type HeatTable struct {
	counts []uint32
}

// NewHeatTable sizes a zeroed table for n granules.
func NewHeatTable(n int) *HeatTable {
	if n < 0 {
		n = 0
	}
	return &HeatTable{counts: make([]uint32, n)}
}

// Len returns the number of tracked granules.
func (h *HeatTable) Len() int {
	if h == nil {
		return 0
	}
	return len(h.counts)
}

// Touch bumps the heat of one granule; out-of-range granules are ignored so
// callers need not bounds-check speculative offsets.
func (h *HeatTable) Touch(granule int) {
	if h == nil || granule < 0 || granule >= len(h.counts) {
		return
	}
	if h.counts[granule] < 1<<31 {
		h.counts[granule]++
	}
}

// Heat returns one granule's counter (0 when out of range).
func (h *HeatTable) Heat(granule int) uint32 {
	if h == nil || granule < 0 || granule >= len(h.counts) {
		return 0
	}
	return h.counts[granule]
}

// Decay halves every counter — called after each migration pass so heat is
// "touches since roughly the last few passes", not "touches ever".
func (h *HeatTable) Decay() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i] >>= 1
	}
}

// AppendHeat appends the canonical byte form of a table to dst: the granule
// count followed by delta-free uvarint counters (most are tiny, so this stays
// compact without a second pass).
func AppendHeat(dst []byte, h *HeatTable) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Len()))
	for _, c := range h.counts {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// maxHeatGranules bounds the tables a decode accepts.
const maxHeatGranules = 1 << 22

// DecodeHeat parses a heat table, rejecting oversized lengths, out-of-range
// counters, and trailing bytes.
func DecodeHeat(b []byte) (*HeatTable, error) {
	d := codec.NewDecoder(b)
	n := d.Count(1)
	if n > maxHeatGranules {
		return nil, errCodec
	}
	h := &HeatTable{counts: make([]uint32, n)}
	for i := range h.counts {
		h.counts[i] = uint32(d.Uint(math.MaxUint32))
	}
	if err := decoded(&d, true); err != nil {
		return nil, err
	}
	return h, nil
}
