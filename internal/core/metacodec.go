package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Metadata frames (DESIGN.md §6, "Metadata"). Each frame appended to a
// metadata zone is
//
//	plen u32 | crc32(payload) u32 | magic u32 | payload
//
// The magic's upper three bytes mark a metadata frame; its low byte is the
// payload version. Payload version 1 is
//
//	seq | flags | upserts | removals | sums
//
// Integers are uvarints, byte fields are length-prefixed, and each list is a
// count followed by its items:
//
//   - upserts: whole keyspace records (appendMetaRecord), checksum tables
//     excluded;
//   - removals: names of keyspaces no longer in the table;
//   - sums: (cluster ID, granule count, one little-endian CRC32-C word per
//     granule) for every checksum table that changed.
//
// Recovery folds a zone's frames forward: upserts and removals by name, sums
// by cluster ID. A snapshot frame (metaFlagSnapshot) starts the fold over: it
// carries every live record and every checksum table. The first frame in a
// zone is always one, so each zone stands alone.
const (
	metaHeaderLen    = 12
	metaMagicFamily  = 0x4b564d00 // "KVM" above the version byte
	metaVersion      = 1
	metaFlagSnapshot = 1
)

var errMetaDecode = errors.New("malformed metadata frame")

// metaKeyspace is one keyspace record: everything Recover needs to rebuild
// the keyspace except its checksum tables. The byte fields of a decoded
// record view the frame it came from.
type metaKeyspace struct {
	name         string
	state        uint8
	count, bytes int64
	minKey       []byte
	maxKey       []byte
	klog, vlog   *metaCluster
	pidx, sorted *metaCluster
	logFrames    []frameExtent // validated KLOG frame extents
	sketch       []sketchEntry
	secondary    []metaSecondary
	heat         []byte // compaction.AppendHeat form; empty without compacted data
}

// metaCluster is a cluster's layout. id is its manager-lifetime identity, by
// which the sums list matches checksum tables to clusters across frames;
// Recover bumps the zone manager's cluster sequence past every recovered id,
// so ids stay unique across restarts even though frames from several runs
// share a zone.
type metaCluster struct {
	id      int64
	typ     uint8
	stripes [][]int
	offset  int
	length  int64
	sealed  bool
	tail    []byte
}

type metaSecondary struct {
	name           string
	offset, length int
	typ            uint8
	built          bool
	cluster        *metaCluster
	sketch         []sketchEntry
}

// clusterSums is one entry of a frame's sums list.
type clusterSums struct {
	id   int64
	sums []uint32
}

// metaFrame is one decoded frame.
type metaFrame struct {
	seq      uint64
	snapshot bool
	upserts  []metaKeyspace
	removals []string
	sums     []clusterSums
}

// beginMetaFrame appends a header placeholder and the payload's seq and
// flags; finishMetaFrame fills the header in once the payload is complete.
func beginMetaFrame(dst []byte, seq uint64, snapshot bool) []byte {
	dst = append(dst, make([]byte, metaHeaderLen)...)
	dst = binary.AppendUvarint(dst, seq)
	if snapshot {
		return binary.AppendUvarint(dst, metaFlagSnapshot)
	}
	return binary.AppendUvarint(dst, 0)
}

func finishMetaFrame(frame []byte) {
	payload := frame[metaHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(frame[8:], metaMagicFamily|metaVersion)
}

// insertCount writes the item count of the list that starts at b[at:] in
// front of it: a list's length is known only once its items are encoded.
// It returns the bytes the list moved by.
func insertCount(b []byte, at, n int) ([]byte, int) {
	var c [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(c[:], uint64(n))
	b = append(b, c[:k]...)
	copy(b[at+k:], b[at:len(b)-k])
	copy(b[at:], c[:k])
	return b, k
}

func appendInt(b []byte, v int64) []byte { return binary.AppendUvarint(b, uint64(v)) }

func appendField[T string | []byte](b []byte, v T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendMetaCluster(b []byte, c *metaCluster) []byte {
	if c == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendInt(b, c.id)
	b = appendInt(b, int64(c.typ))
	b = appendInt(b, int64(len(c.stripes)))
	for _, s := range c.stripes {
		b = appendInt(b, int64(len(s)))
		for _, z := range s {
			b = appendInt(b, int64(z))
		}
	}
	b = appendInt(b, int64(c.offset))
	b = appendInt(b, c.length)
	b = appendBool(b, c.sealed)
	return appendField(b, c.tail)
}

func appendSketch(b []byte, s []sketchEntry) []byte {
	b = appendInt(b, int64(len(s)))
	for _, e := range s {
		b = appendField(b, e.pivot)
		b = appendInt(b, e.block)
	}
	return b
}

// appendMetaRecord appends one keyspace record, fields in a fixed order.
func appendMetaRecord(b []byte, r *metaKeyspace) []byte {
	b = appendField(b, r.name)
	b = appendInt(b, int64(r.state))
	b = appendInt(b, r.count)
	b = appendInt(b, r.bytes)
	b = appendField(b, r.minKey)
	b = appendField(b, r.maxKey)
	for _, c := range [...]*metaCluster{r.klog, r.vlog, r.pidx, r.sorted} {
		b = appendMetaCluster(b, c)
	}
	b = appendInt(b, int64(len(r.logFrames)))
	for _, e := range r.logFrames {
		b = appendInt(b, e.Start)
		b = appendInt(b, e.End)
	}
	b = appendSketch(b, r.sketch)
	b = appendInt(b, int64(len(r.secondary)))
	for i := range r.secondary {
		s := &r.secondary[i]
		b = appendField(b, s.name)
		b = appendInt(b, int64(s.offset))
		b = appendInt(b, int64(s.length))
		b = appendInt(b, int64(s.typ))
		b = appendBool(b, s.built)
		b = appendMetaCluster(b, s.cluster)
		b = appendSketch(b, s.sketch)
	}
	return appendField(b, r.heat)
}

func appendClusterSums(b []byte, id int64, sums []uint32) []byte {
	b = appendInt(b, id)
	b = appendInt(b, int64(len(sums)))
	for _, s := range sums {
		b = binary.LittleEndian.AppendUint32(b, s)
	}
	return b
}

// metaReader decodes a payload. The first malformed field sets bad and every
// later read returns zero values, so decoders check once at the end.
type metaReader struct {
	b   []byte
	bad bool
}

func (r *metaReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *metaReader) fail() { r.bad, r.b = true, nil }

func (r *metaReader) int() int64 { return int64(r.uvarint()) }

// count reads a list length, refusing one longer than the bytes left could
// hold at min bytes per item — a hostile length must not size an allocation.
func (r *metaReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *metaReader) small() uint8 {
	v := r.uvarint()
	if v > 0xff {
		r.fail()
		return 0
	}
	return uint8(v)
}

func (r *metaReader) bool() bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail()
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// field returns a length-prefixed byte field as a view, nil when empty.
func (r *metaReader) field() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	if n == 0 {
		return nil
	}
	return v
}

func (r *metaReader) cluster() *metaCluster {
	if !r.bool() {
		return nil
	}
	c := &metaCluster{id: r.int(), typ: r.small()}
	if n := r.count(1); n > 0 {
		c.stripes = make([][]int, n)
		for i := range c.stripes {
			s := make([]int, r.count(1))
			for j := range s {
				s[j] = int(r.int())
			}
			c.stripes[i] = s
		}
	}
	c.offset = int(r.int())
	c.length = r.int()
	c.sealed = r.bool()
	c.tail = r.field()
	return c
}

func (r *metaReader) sketch() []sketchEntry {
	n := r.count(2)
	if n == 0 {
		return nil
	}
	s := make([]sketchEntry, n)
	for i := range s {
		s[i] = sketchEntry{pivot: r.field(), block: r.int()}
	}
	return s
}

func (r *metaReader) record() metaKeyspace {
	k := metaKeyspace{
		name:   string(r.field()),
		state:  r.small(),
		count:  r.int(),
		bytes:  r.int(),
		minKey: r.field(),
		maxKey: r.field(),
		klog:   r.cluster(),
		vlog:   r.cluster(),
		pidx:   r.cluster(),
		sorted: r.cluster(),
	}
	if n := r.count(2); n > 0 {
		k.logFrames = make([]frameExtent, n)
		for i := range k.logFrames {
			k.logFrames[i] = frameExtent{Start: r.int(), End: r.int()}
		}
	}
	k.sketch = r.sketch()
	if n := r.count(7); n > 0 {
		k.secondary = make([]metaSecondary, n)
		for i := range k.secondary {
			k.secondary[i] = metaSecondary{
				name:    string(r.field()),
				offset:  int(r.int()),
				length:  int(r.int()),
				typ:     r.small(),
				built:   r.bool(),
				cluster: r.cluster(),
				sketch:  r.sketch(),
			}
		}
	}
	k.heat = r.field()
	return k
}

// decodeMetaPayload decodes a version-1 payload. The frame's byte fields view
// payload, which the caller must own.
func decodeMetaPayload(payload []byte) (*metaFrame, error) {
	r := &metaReader{b: payload}
	f := &metaFrame{seq: r.uvarint()}
	switch flags := r.small(); flags {
	case 0, metaFlagSnapshot:
		f.snapshot = flags == metaFlagSnapshot
	default:
		r.fail()
	}
	if n := r.count(14); n > 0 {
		f.upserts = make([]metaKeyspace, n)
		for i := range f.upserts {
			f.upserts[i] = r.record()
		}
	}
	if n := r.count(1); n > 0 {
		f.removals = make([]string, n)
		for i := range f.removals {
			f.removals[i] = string(r.field())
		}
	}
	if n := r.count(2); n > 0 {
		f.sums = make([]clusterSums, n)
		for i := range f.sums {
			s := clusterSums{id: r.int()}
			if g := r.count(4); g > 0 {
				s.sums = make([]uint32, g)
				for j := range s.sums {
					s.sums[j] = binary.LittleEndian.Uint32(r.b[4*j:])
				}
				r.b = r.b[4*g:]
			}
			f.sums[i] = s
		}
	}
	if r.bad || len(r.b) != 0 {
		return nil, errMetaDecode
	}
	return f, nil
}
