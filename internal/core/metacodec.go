package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"kvcsd/internal/codec"
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
// count followed by its items, read by internal/codec's rules:
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

func appendMetaCluster(b []byte, c *metaCluster) []byte {
	b = codec.AppendBool(b, c != nil)
	if c == nil {
		return b
	}
	b = binary.AppendUvarint(b, uint64(c.id))
	b = binary.AppendUvarint(b, uint64(c.typ))
	b = binary.AppendUvarint(b, uint64(len(c.stripes)))
	for _, s := range c.stripes {
		b = binary.AppendUvarint(b, uint64(len(s)))
		for _, z := range s {
			b = binary.AppendUvarint(b, uint64(z))
		}
	}
	b = binary.AppendUvarint(b, uint64(c.offset))
	b = binary.AppendUvarint(b, uint64(c.length))
	b = codec.AppendBool(b, c.sealed)
	return codec.AppendBytes(b, c.tail)
}

func appendSketch(b []byte, s []sketchEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, e := range s {
		b = codec.AppendBytes(b, e.pivot)
		b = binary.AppendUvarint(b, uint64(e.block))
	}
	return b
}

// appendMetaRecord appends one keyspace record, fields in a fixed order.
func appendMetaRecord(b []byte, r *metaKeyspace) []byte {
	b = codec.AppendBytes(b, r.name)
	b = binary.AppendUvarint(b, uint64(r.state))
	b = binary.AppendUvarint(b, uint64(r.count))
	b = binary.AppendUvarint(b, uint64(r.bytes))
	b = codec.AppendBytes(b, r.minKey)
	b = codec.AppendBytes(b, r.maxKey)
	for _, c := range [...]*metaCluster{r.klog, r.vlog, r.pidx, r.sorted} {
		b = appendMetaCluster(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(r.logFrames)))
	for _, e := range r.logFrames {
		b = binary.AppendUvarint(b, uint64(e.Start))
		b = binary.AppendUvarint(b, uint64(e.End))
	}
	b = appendSketch(b, r.sketch)
	b = binary.AppendUvarint(b, uint64(len(r.secondary)))
	for i := range r.secondary {
		s := &r.secondary[i]
		b = codec.AppendBytes(b, s.name)
		b = binary.AppendUvarint(b, uint64(s.offset))
		b = binary.AppendUvarint(b, uint64(s.length))
		b = binary.AppendUvarint(b, uint64(s.typ))
		b = codec.AppendBool(b, s.built)
		b = appendMetaCluster(b, s.cluster)
		b = appendSketch(b, s.sketch)
	}
	return codec.AppendBytes(b, r.heat)
}

func appendClusterSums(b []byte, id int64, sums []uint32) []byte {
	b = binary.AppendUvarint(b, uint64(id))
	b = binary.AppendUvarint(b, uint64(len(sums)))
	for _, s := range sums {
		b = binary.LittleEndian.AppendUint32(b, s)
	}
	return b
}

func decodeMetaCluster(d *codec.Decoder) *metaCluster {
	if !d.Bool() {
		return nil
	}
	c := &metaCluster{id: int64(d.Uvarint()), typ: uint8(d.Uint(math.MaxUint8))}
	if n := d.Count(1); n > 0 {
		c.stripes = make([][]int, n)
		for i := range c.stripes {
			s := make([]int, d.Count(1))
			for j := range s {
				s[j] = int(d.Uvarint())
			}
			c.stripes[i] = s
		}
	}
	c.offset = int(d.Uvarint())
	c.length = int64(d.Uvarint())
	c.sealed = d.Bool()
	c.tail = d.Bytes()
	return c
}

func decodeSketch(d *codec.Decoder) []sketchEntry {
	n := d.Count(2)
	if n == 0 {
		return nil
	}
	s := make([]sketchEntry, n)
	for i := range s {
		s[i] = sketchEntry{pivot: d.Bytes(), block: int64(d.Uvarint())}
	}
	return s
}

func decodeMetaRecord(d *codec.Decoder) metaKeyspace {
	k := metaKeyspace{
		name:   string(d.Bytes()),
		state:  uint8(d.Uint(math.MaxUint8)),
		count:  int64(d.Uvarint()),
		bytes:  int64(d.Uvarint()),
		minKey: d.Bytes(),
		maxKey: d.Bytes(),
		klog:   decodeMetaCluster(d),
		vlog:   decodeMetaCluster(d),
		pidx:   decodeMetaCluster(d),
		sorted: decodeMetaCluster(d),
	}
	if n := d.Count(2); n > 0 {
		k.logFrames = make([]frameExtent, n)
		for i := range k.logFrames {
			k.logFrames[i] = frameExtent{Start: int64(d.Uvarint()), End: int64(d.Uvarint())}
		}
	}
	k.sketch = decodeSketch(d)
	if n := d.Count(7); n > 0 {
		k.secondary = make([]metaSecondary, n)
		for i := range k.secondary {
			k.secondary[i] = metaSecondary{
				name:    string(d.Bytes()),
				offset:  int(d.Uvarint()),
				length:  int(d.Uvarint()),
				typ:     uint8(d.Uint(math.MaxUint8)),
				built:   d.Bool(),
				cluster: decodeMetaCluster(d),
				sketch:  decodeSketch(d),
			}
		}
	}
	k.heat = d.Bytes()
	return k
}

// decodeMetaPayload decodes a version-1 payload. The frame's byte fields view
// payload, which the caller must own.
func decodeMetaPayload(payload []byte) (*metaFrame, error) {
	d := codec.NewDecoder(payload)
	f := &metaFrame{seq: d.Uvarint(), snapshot: d.Uint(metaFlagSnapshot) == metaFlagSnapshot}
	if n := d.Count(14); n > 0 {
		f.upserts = make([]metaKeyspace, n)
		for i := range f.upserts {
			f.upserts[i] = decodeMetaRecord(&d)
		}
	}
	if n := d.Count(1); n > 0 {
		f.removals = make([]string, n)
		for i := range f.removals {
			f.removals[i] = string(d.Bytes())
		}
	}
	if n := d.Count(2); n > 0 {
		f.sums = make([]clusterSums, n)
		for i := range f.sums {
			s := clusterSums{id: int64(d.Uvarint())}
			if g := d.Count(4); g > 0 {
				s.sums = make([]uint32, g)
				for j := range s.sums {
					s.sums[j] = d.U32()
				}
			}
			f.sums[i] = s
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", errMetaDecode, err)
	}
	return f, nil
}
