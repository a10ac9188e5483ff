package core

import (
	"fmt"
	"slices"

	"kvcsd/internal/host"
	"kvcsd/internal/sim"
)

// bucketWriter partitions records by a uint64 ordering key into contiguous
// range buckets, each a temp zone cluster written sequentially. Together
// with a per-bucket in-DRAM pass on read-back (valueGatherer, valuePlacer),
// this gives a two-pass distribution sort: the mechanism that lets KV-CSD
// move value bytes exactly twice during compaction regardless of dataset
// size, which is the point of key-value separation (paper §V: values are
// sorted "using the sorted keys" rather than merged through log-many rounds).
type bucketWriter struct {
	zm       *ZoneManager
	width    uint64 // ordering-key span per bucket
	clusters []*Cluster
	bufs     [][]byte
}

// maxBuckets bounds open clusters (and the per-bucket DRAM needed later).
const maxBuckets = 64

// newBucketWriter sizes buckets to cover [0, total) with spans of at least
// budget bytes, capped at maxBuckets buckets.
func newBucketWriter(zm *ZoneManager, total uint64, budget int) *bucketWriter {
	width := uint64(budget)
	if width == 0 {
		width = 1
	}
	if n := total / width; n >= maxBuckets {
		width = (total + maxBuckets - 1) / maxBuckets
	}
	return &bucketWriter{zm: zm, width: width}
}

// add appends an encoded record to the bucket owning ordering key k.
func (w *bucketWriter) add(p *sim.Proc, k uint64, encoded []byte) error {
	b := int(k / w.width)
	for len(w.clusters) <= b {
		w.clusters = append(w.clusters, w.zm.NewCluster(ZoneTemp))
		w.bufs = append(w.bufs, nil)
	}
	w.bufs[b] = append(w.bufs[b], encoded...)
	if len(w.bufs[b]) >= appendBurst {
		if err := w.clusters[b].Append(p, w.bufs[b]); err != nil {
			return err
		}
		w.bufs[b] = w.bufs[b][:0]
	}
	return nil
}

// finish flushes and seals all buckets.
func (w *bucketWriter) finish(p *sim.Proc) error {
	for b, c := range w.clusters {
		if len(w.bufs[b]) > 0 {
			if err := c.Append(p, w.bufs[b]); err != nil {
				return err
			}
			w.bufs[b] = nil
		}
		if err := c.Seal(p); err != nil {
			return err
		}
	}
	return nil
}

// release returns all bucket zones to the pool.
func (w *bucketWriter) release(p *sim.Proc) error {
	for _, c := range w.clusters {
		if err := c.Release(p); err != nil {
			return err
		}
	}
	w.clusters = nil
	return nil
}

// valueGatherer copies the values of destination buckets out of the VLOG
// without sorting the buckets. A destination bucket holds the entries whose
// vlogOff falls in its range [lo, lo+width), so its values lie inside one
// VLOG span no longer than the width plus one value — the bound the value
// buckets already keep in DRAM. The gatherer reads that span once and hands
// each value out of it in the order the entries came in. One compaction
// reuses a single gatherer — entries and span buffer — for every bucket, as
// it does its valuePlacer.
type valueGatherer struct {
	ents   []destEntry
	buf    []byte // the bucket's bytes, then the VLOG span
	spanAt uint64 // VLOG offset of buf[0] once the span is read
}

// gather reads destination bucket c and the span of vlog its entries cover,
// and returns the entries in bucket order, valid until the gatherer's next
// use; value returns each one's bytes. It charges cpu one compare per record.
// An entry starting outside [lo, lo+width), or ending past vlog, is an error.
func (g *valueGatherer) gather(p *sim.Proc, cpu host.Meter, c, vlog *Cluster, lo, width uint64) ([]destEntry, error) {
	g.ents = g.ents[:0]
	if c == nil || c.Len() == 0 {
		return nil, nil
	}
	if err := g.read(p, c, 0, c.Len()); err != nil {
		return nil, err
	}
	data := g.buf
	first, end := uint64(vlog.Len()), uint64(0)
	for len(data) > 0 {
		de, k, err := destCodec{}.Decode(data, true)
		if err != nil {
			return nil, err
		}
		if de.vlogOff < lo || de.vlogOff-lo >= width || de.vlogOff+uint64(de.vlen) > uint64(vlog.Len()) {
			return nil, fmt.Errorf("core: destination entry %d+%d outside the span from %d of bucket width %d",
				de.vlogOff, de.vlen, lo, width)
		}
		g.ents = append(g.ents, de)
		first, end = min(first, de.vlogOff), max(end, de.vlogOff+uint64(de.vlen))
		data = data[k:]
	}
	if err := g.read(p, vlog, int64(first), int64(end-first)); err != nil {
		return nil, err
	}
	g.spanAt = first
	cpu.Compares(p, int64(len(g.ents)))
	return g.ents, nil
}

// value returns the bytes of de, an entry the last gather returned, as a
// view of the span.
func (g *valueGatherer) value(de destEntry) []byte {
	o := de.vlogOff - g.spanAt
	return g.buf[o : o+uint64(de.vlen) : o+uint64(de.vlen)]
}

// read fills the buffer with the n bytes of c at off, in the ReadAt sequence
// a scanner issues: scanChunk bytes at a time, in order.
func (g *valueGatherer) read(p *sim.Proc, c *Cluster, off, n int64) error {
	g.buf = slices.Grow(g.buf[:0], int(n))[:n]
	for o := int64(0); o < n; o += scanChunk {
		if err := c.ReadAt(p, g.buf[o:min(o+scanChunk, n)], off+o); err != nil {
			return err
		}
	}
	return nil
}

// valuePlacer lays value buckets out in SORTED_VALUES order without sorting
// them. A value bucket holds every value record whose destOff falls in its
// range, and destination offsets were assigned back to back, so the values of
// one bucket tile one contiguous span exactly: copying each to destOff − lo
// leaves the span in order. One compaction reuses a single placer — the read
// window, the placed span and the tiling check's bitmap — for every bucket;
// the span and bitmap grow to the largest bucket once.
type valuePlacer struct {
	sc     scanner[valueRec] // streams the bucket's records through one window
	out    []byte            // the bucket's values, each at its destOff − lo
	filled []uint64          // one bit per byte of out: written by a value already
}

// place streams value bucket c, whose values must tile [lo, lo+len(vals))
// exactly, and copies each to its place. It returns the placed values, valid
// until the placer's next use, and the bucket's record count, and charges cpu
// one compare per record. A value before lo, two values overlapping, or a
// byte of the span no value covers is an error: the value pass did not
// reproduce the order the key pass assigned.
func (v *valuePlacer) place(p *sim.Proc, cpu host.Meter, c *Cluster, lo uint64) (vals []byte, n int, err error) {
	if c == nil || c.Len() == 0 {
		return nil, 0, nil
	}
	// Values are at most the records' bytes, so the bucket's length bounds
	// the span.
	bound := int(c.Len())
	if cap(v.out) < bound {
		v.out = make([]byte, bound)
		v.filled = make([]uint64, (bound+63)/64)
	}
	out := v.out[:bound]
	filled := v.filled[:(bound+63)/64]
	clear(filled)
	v.sc = scanner[valueRec]{c: c, codec: valueCodec{}, buf: v.sc.buf[:0]}
	var size, end uint64 // value bytes placed, and the end of the furthest one
	for {
		rec, ok, err := v.sc.next(p)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			break
		}
		off := rec.destOff - lo
		vend := off + uint64(len(rec.value))
		if rec.destOff < lo || vend > uint64(len(out)) || !fillRange(filled, off, vend) {
			return nil, 0, fmt.Errorf("core: value sort produced gap: %d bytes at dest %d fall outside or over the span from %d",
				len(rec.value), rec.destOff, lo)
		}
		copy(out[off:vend], rec.value)
		size += uint64(len(rec.value))
		end = max(end, vend)
		n++
	}
	// No two values overlap, so they cover size bytes of [0, end): all of it
	// exactly when the two agree.
	if size != end {
		return nil, 0, fmt.Errorf("core: value sort produced gap: %d value bytes span %d from dest %d", size, end, lo)
	}
	cpu.Compares(p, int64(n))
	return out[:size], n, nil
}

// fillRange sets bits [lo, hi) of bits a word at a time and reports whether
// none of them was set before.
func fillRange(bits []uint64, lo, hi uint64) bool {
	for lo < hi {
		w, b := lo/64, lo%64
		k := min(hi-lo, 64-b)
		mask := ^uint64(0) >> (64 - k) << b
		if bits[w]&mask != 0 {
			return false
		}
		bits[w] |= mask
		lo += k
	}
	return true
}

// buckets returns the bucket clusters in range order.
func (w *bucketWriter) buckets() []*Cluster { return w.clusters }
