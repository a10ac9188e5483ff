package core

import (
	"fmt"
	"slices"

	"kvcsd/internal/host"
	"kvcsd/internal/sim"
)

// bucketWriter partitions records by a uint64 ordering key into contiguous
// range buckets. Together with a per-bucket in-DRAM pass on read-back
// (valueGatherer, valuePlacer), this gives the value sort its distribution
// passes: value bytes move once when the live values fit the sort budget and
// twice otherwise, regardless of dataset size — the point of key-value
// separation (paper §V: values are sorted "using the sorted keys" rather than
// merged through log-many rounds).
//
// A writer whose one bucket covers the whole range keeps that bucket in SoC
// DRAM, counted in the engine's DRAM gauge, until its bytes would pass the
// sort budget; then the bucket spills to a temp zone cluster. Only a
// destination writer is held: values that fit the budget are placed, not
// bucketed. Every bucket of a writer with more than one is a temp zone
// cluster from the start. A spilled bucket is written sequentially,
// appendBurst bytes at a time, through the writer's one appender.
type bucketWriter struct {
	zm    *ZoneManager
	width uint64 // ordering-key span per bucket
	// hold is how many bytes a bucket may keep in DRAM before it spills:
	// SortBudgetBytes when one bucket covers the range, else 0.
	hold  int
	dram  *sim.Gauge // the engine's SoC DRAM gauge: counts held bytes
	moved *uint64    // counts the bytes appended to bucket clusters
	bkts  []bucket
	app   appender
	apart []*Cluster // clusters the spilled buckets sit apart from (NewCluster)
}

// bucket is one range of a bucketWriter. While c is nil the bucket is held:
// buf is every record of it, in SoC DRAM. Once it has spilled, c holds the
// records and buf stages the next burst, empty after the writer's finish; pf,
// when set, streams c's bytes next (readAhead).
type bucket struct {
	c   *Cluster
	buf []byte
	pf  *prefetcher
	n   int // records added
}

// len returns the bucket's size in bytes.
func (bk bucket) len() int64 {
	if bk.c == nil {
		return int64(len(bk.buf))
	}
	return bk.c.Len()
}

// valueBytes bounds the bytes of the values in value bucket bk: its records'
// bytes less a header for each record add counted. A bucket built without add
// counts none, and its whole length bounds its values.
func (bk bucket) valueBytes() int { return int(bk.len()) - bk.n*valueHeaderBytes }

// maxBuckets bounds open clusters (and the per-bucket DRAM needed later).
const maxBuckets = 64

// newBucketWriter sizes buckets to cover [0, total) with spans of at least
// SortBudgetBytes, capped at maxBuckets buckets. Bytes the writer appends
// count in moved.
func (e *Engine) newBucketWriter(total uint64, moved *uint64) *bucketWriter {
	budget := e.cfg.SortBudgetBytes
	w := &bucketWriter{zm: e.zm, width: uint64(budget), dram: e.dram, moved: moved}
	if n := total / w.width; n >= maxBuckets {
		w.width = (total + maxBuckets - 1) / maxBuckets
	}
	if total <= w.width {
		w.hold = budget
	}
	return w
}

// add appends an encoded record to the bucket owning ordering key k.
func (w *bucketWriter) add(p *sim.Proc, k uint64, encoded []byte) error {
	b := int(k / w.width)
	for len(w.bkts) <= b {
		var bk bucket
		if w.hold == 0 {
			bk.c = w.zm.NewCluster(ZoneTemp, w.apart...)
		}
		w.bkts = append(w.bkts, bk)
	}
	bk := &w.bkts[b]
	bk.n++
	if bk.c == nil && len(bk.buf)+len(encoded) <= w.hold {
		if len(bk.buf)+len(encoded) > cap(bk.buf) {
			// Double, up to the budget: append grows a large slice by a
			// quarter at a time, which copies a big bucket several times over.
			bk.buf = slices.Grow(bk.buf, min(max(len(bk.buf), appendBurst), w.hold-len(bk.buf)))
		}
		bk.buf = append(bk.buf, encoded...)
		w.dram.Add(float64(len(encoded)))
		return nil
	}
	if bk.c == nil {
		if err := w.spill(p, bk); err != nil {
			return err
		}
	}
	bk.buf = append(bk.buf, encoded...)
	if len(bk.buf) >= appendBurst {
		return w.flush(p, bk)
	}
	return nil
}

// spill moves a held bucket to a new temp cluster: it appends what the bucket
// holds, which stops counting in DRAM.
func (w *bucketWriter) spill(p *sim.Proc, bk *bucket) error {
	bk.c = w.zm.NewCluster(ZoneTemp, w.apart...)
	w.dram.Add(-float64(len(bk.buf)))
	err := w.flush(p, bk)
	bk.buf = nil // the next burst stages in a buffer of its own size
	return err
}

// flush appends a spilled bucket's staged bytes to its cluster.
func (w *bucketWriter) flush(p *sim.Proc, bk *bucket) (err error) {
	if len(bk.buf) == 0 {
		return nil
	}
	*w.moved += uint64(len(bk.buf))
	bk.buf, err = w.app.put(p, bk.c, bk.buf)
	return err
}

// finish appends the rest of every spilled bucket, stops the write stage and
// seals every spilled bucket's cluster. A held bucket stays as it is.
func (w *bucketWriter) finish(p *sim.Proc) error {
	for i := range w.bkts {
		if bk := &w.bkts[i]; bk.c != nil {
			if err := w.flush(p, bk); err != nil {
				return err
			}
			bk.buf = nil
		}
	}
	if err := w.app.stop(p); err != nil {
		return err
	}
	for _, bk := range w.bkts {
		if bk.c != nil {
			if err := bk.c.Seal(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// buckets returns the buckets in range order.
func (w *bucketWriter) buckets() []bucket { return w.bkts }

// release returns every spilled bucket's zones to the pool and lets go of
// the held ones.
func (w *bucketWriter) release(p *sim.Proc) error {
	_ = w.app.stop(p) // stopped already, unless the job failed
	bkts := w.bkts
	w.drop()
	for _, bk := range bkts {
		if bk.c != nil {
			if err := bk.c.Release(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// drop lets go of the held buckets' DRAM and forgets every bucket; zones of
// spilled ones are left to release (or, after a failed job, to the recovery
// sweep).
func (w *bucketWriter) drop() {
	for _, bk := range w.bkts {
		if bk.c == nil {
			w.dram.Add(-float64(len(bk.buf)))
		}
	}
	w.bkts = nil
}

// passCPU charges a bucket pass to cpu bucket by bucket, each bucket's
// compares spread over len(shares) cores and priced at the pass's running
// total (host.Meter.ComparesAfter), so the pass costs exactly one charge of
// all its records however its buckets are split.
type passCPU struct {
	cpu    host.Meter
	shares []int64 // one bucket's compares, per core
	done   int64   // compares charged so far
}

// newPassCPU returns the charge of a bucket pass in phase ph: on the cores a
// batch sort takes (Sorter.shares) when split is set, else on one.
func (e *Engine) newPassCPU(ph socPhase, split bool) *passCPU {
	cores := 1
	if split {
		cores = e.soc.Config().Cores - 1
	}
	return passOn(e.cpu[ph], cores)
}

// passOn returns the charge of a bucket pass to cpu on cores cores (at least
// one).
func passOn(cpu host.Meter, cores int) *passCPU {
	return &passCPU{cpu: cpu, shares: make([]int64, max(1, cores))}
}

// compares charges the next n compares of the pass.
func (c *passCPU) compares(p *sim.Proc, n int64) {
	clear(c.shares)
	spread(c.shares, int(n))
	c.cpu.ComparesAfter(p, c.done, c.shares...)
	c.done += n
}

// valueGatherer copies the values of destination buckets out of the VLOG
// without sorting the buckets. A destination bucket holds the entries whose
// vlogOff falls in its range [lo, lo+width), so its values lie inside one
// VLOG span no longer than the width plus one value — about the sort budget,
// as the spans a valuePlacer keeps in DRAM. The gatherer reads that span once
// and hands each value out of it in the order the entries came in. One
// compaction reuses a single gatherer — entries, buffer and VLOG window — for
// every bucket.
type valueGatherer struct {
	ents   []destEntry
	buf    []byte // a spilled bucket's bytes
	vlog   clusterWindow
	span   []byte // the VLOG span of the last gather
	spanAt uint64 // VLOG offset of span[0]
}

// gather decodes destination bucket bk — straight from DRAM while it is
// held, else read whole from its cluster — reads the span of vlog its entries
// cover, and returns the entries in bucket order, valid until the gatherer's
// next use; value returns each one's bytes. It charges cpu one compare per
// record. An entry starting outside [lo, lo+width), or ending past vlog, is an
// error.
func (g *valueGatherer) gather(p *sim.Proc, cpu *passCPU, bk bucket, vlog *Cluster, lo, width uint64) ([]destEntry, error) {
	g.ents = g.ents[:0]
	if bk.len() == 0 {
		return nil, nil
	}
	data := bk.buf
	if bk.c != nil {
		if bk.pf == nil {
			bk.pf = pipeline{}.prefetch(whole(bk.c))
		}
		for g.buf = g.buf[:0]; len(g.buf) < int(bk.c.Len()); {
			chunk, err := bk.pf.next(p)
			if err != nil {
				return nil, err
			}
			g.buf = append(g.buf, chunk...)
		}
		data = g.buf
	}
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
	if g.vlog.c != vlog {
		g.vlog = clusterWindow{c: vlog}
	}
	span, err := g.vlog.read(p, int64(first), int(end-first))
	if err != nil {
		return nil, err
	}
	g.span, g.spanAt = span, first
	cpu.compares(p, int64(len(g.ents)))
	return g.ents, nil
}

// value returns the bytes of de, an entry the last gather returned, as a
// view of the span.
func (g *valueGatherer) value(de destEntry) []byte {
	o := de.vlogOff - g.spanAt
	return g.span[o : o+uint64(de.vlen) : o+uint64(de.vlen)]
}

// readAhead starts one prefetcher reading the spilled buckets back to back,
// ahead of the one being read, as each one's pf. The caller stops it.
func (w *bucketWriter) readAhead(pl pipeline) *prefetcher {
	var spans []span
	for _, bk := range w.bkts {
		if bk.c != nil {
			spans = append(spans, whole(bk.c))
		}
	}
	pf := pl.prefetch(spans...)
	for i := range w.bkts {
		w.bkts[i].pf = pf
	}
	return pf
}

// valuePlacer lays values out in SORTED_VALUES order without sorting them.
// Destination offsets were assigned back to back, so the values whose destOff
// falls in one range tile one contiguous span exactly: copying each to
// destOff − lo leaves the span in order. A value sort that fits the sort
// budget places every value of the keyspace into one span as the destination
// pass gathers it; a larger one places each value bucket in the value pass,
// through two placers in turn — each with its read window, span and the
// tiling check's bitmap — that grow to the largest bucket once.
type valuePlacer struct {
	sc        scanner[valueRec] // streams a spilled bucket's records through one window
	out       []byte            // the span's values, each at its destOff − lo
	filled    []uint64          // one bit per byte of out: written by a value already
	lo        uint64            // the destination of out[0]
	size, end uint64            // value bytes placed, and where the furthest one ends
	n         int               // values placed
}

// open starts an empty span of at most bound bytes at destination lo.
func (v *valuePlacer) open(lo uint64, bound int) {
	if cap(v.out) < bound {
		v.out = make([]byte, bound)
		v.filled = make([]uint64, (bound+63)/64)
	}
	v.out, v.filled = v.out[:bound], v.filled[:(bound+63)/64]
	clear(v.filled)
	v.lo, v.size, v.end, v.n = lo, 0, 0, 0
}

// release lets go of the span; the buffers stay for a later open.
func (v *valuePlacer) release() { v.out = v.out[:0] }

// put copies val, the value bound for destOff, to its place in the span. A
// value before the span, past its bound or over a value placed already is an
// error: the value sort did not reproduce the order the key pass assigned.
func (v *valuePlacer) put(destOff uint64, val []byte) error {
	off := destOff - v.lo
	vend := off + uint64(len(val))
	if destOff < v.lo || vend > uint64(len(v.out)) || !fillRange(v.filled, off, vend) {
		return fmt.Errorf("core: value sort produced gap: %d bytes at dest %d fall outside or over the span from %d",
			len(val), destOff, v.lo)
	}
	copy(v.out[off:vend], val)
	v.size += uint64(len(val))
	v.end = max(v.end, vend)
	v.n++
	return nil
}

// placed returns the placed values, valid until the placer's next open, and
// their count. No two values overlap, so they cover [0, end) exactly when
// their bytes add up to end; a byte there that none covers is an error.
func (v *valuePlacer) placed() ([]byte, int, error) {
	if v.size != v.end {
		return nil, 0, fmt.Errorf("core: value sort produced gap: %d value bytes span %d from dest %d", v.size, v.end, v.lo)
	}
	return v.out[:v.size], v.n, nil
}

// place puts each value of spilled value bucket bk, streamed through the
// window from its cluster, into the open span, and charges cpu one compare
// per record.
func (v *valuePlacer) place(p *sim.Proc, cpu *passCPU, bk bucket) error {
	v.sc = scanner[valueRec]{c: bk.c, codec: valueCodec{}, buf: v.sc.buf[:0], pf: bk.pf, left: bk.c.Len()}
	for rec, ok, err := v.sc.next(p); ok || err != nil; rec, ok, err = v.sc.next(p) {
		if err != nil {
			return err
		}
		if err := v.put(rec.destOff, rec.value); err != nil {
			return err
		}
	}
	cpu.compares(p, int64(v.n))
	return nil
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
