package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"kvcsd/internal/compaction"
	"kvcsd/internal/host"
	"kvcsd/internal/sim"
)

// runCompaction is the body of a compaction job once the ingest buffer is
// flushed: it seals the logs, sorts them in the keyspace's layout, and
// installs the result.
func (e *Engine) runCompaction(p *sim.Proc, ks *Keyspace) error {
	if err := ks.klog.Seal(p); err != nil {
		return err
	}
	if err := ks.vlog.Seal(p); err != nil {
		return err
	}
	var out compacted
	var err error
	if e.cfg.DisableKVSeparation {
		out, err = e.sortPairs(p, ks)
	} else {
		out, err = e.sortSeparated(p, ks)
	}
	if err != nil {
		return err
	}
	return e.install(p, ks, out)
}

// compacted is a compaction's output: the PIDX cluster, its sketch and the
// blocks of it kept for the index cache, the SORTED_VALUES cluster, the live
// pair count, and the heat table to start from (nil for a layout that keeps
// none).
type compacted struct {
	pidx, sorted *Cluster
	sketch       []sketchEntry
	kept         [][]byte
	live         int64
	heat         *compaction.HeatTable
}

// install replaces the logs with the indexed form and, once that is
// persisted, admits the PIDX blocks the compaction kept into the index cache.
// It persists before releasing the old log zones: a power cut after the
// Persist leaves them as orphans for the recovery sweep, whereas releasing
// first would let a cut recover a snapshot whose keyspace still claims reset
// (or reused) zones.
func (e *Engine) install(p *sim.Proc, ks *Keyspace, out compacted) error {
	oldKlog, oldVlog := ks.klog, ks.vlog
	ks.klog, ks.vlog = nil, nil
	ks.pidx, ks.sorted, ks.sketch, ks.count, ks.heat = out.pidx, out.sorted, out.sketch, out.live, out.heat
	ks.state = StateCompacted
	ks.compactFinish = p.Now()
	if err := e.mgr.Persist(p); err != nil {
		return err
	}
	e.admitBuilt(out.pidx, out.kept, pidxFormat)
	if err := oldKlog.Release(p); err != nil {
		return err
	}
	return oldVlog.Release(p)
}

// pipeline returns the stage configuration of a compaction or index build
// of ks: the engine's width, with ring occupancy noted against ks and the
// bytes its rings hold counted in the SoC DRAM gauge, landing its writes on
// the engine's write procs.
func (e *Engine) pipeline(ks *Keyspace) pipeline {
	return pipeline{env: e.env, width: e.compactCfg.PipelineWidth, onDelta: func(n, b int) {
		e.noteOccupancy(ks, n)
		e.dram.Add(float64(b))
	}, writes: &e.writes}
}

// sortSeparated executes the paper's two-step deferred compaction on the
// device (§V, "Compaction"):
//
//  1. sort the keys — an external merge sort of the KLOG entries;
//  2. use the sorted keys to sort the values — compute each value's
//     destination offset, bucket the destination entries by VLOG position
//     and gather each bucket's values out of the VLOG span it covers: straight
//     to their destinations when the live values fit the sort budget, else
//     scattered into buckets by destination and placed from each in turn;
//
// and then build the PIDX blocks plus the in-memory sketch (one pivot per
// 4 KiB block). A key sort that fits one batch of SoC DRAM never leaves it,
// and neither does a destination pass whose one bucket covers the keyspace;
// a larger sort, and the buckets of a larger pass, live in temporarily
// allocated zone clusters released as the sort proceeds. Every byte the job
// appends counts in the keyspace's progress (BytesMoved). The value pass
// hands every surviving pair to the extractor of each index that joined the
// compaction before the pass began.
func (e *Engine) sortSeparated(p *sim.Proc, ks *Keyspace) (_ compacted, err error) {
	// Step 1: sort keys (compareKlog: newest duplicate of a key first).
	ks.progress.Stage = compaction.StageSort
	pl := e.pipeline(ks)
	keySorter := newEngineSorter[klogEntry](e, phaseRunKlog, klogCodec{}, klogKey, compareKlog)
	keySorter.pipe = pl
	// The split decision samples utilization over the run-formation phase,
	// not just the instant the merge starts: closed-loop foreground readers
	// keep at most one command in flight each, so they are invisible to
	// queue-depth probes and only show up as sustained busy time. Channel
	// pressure uses the busiest channel, not the mean — hot data pins
	// individual channels, and a striped merge is gated by its slowest one.
	socCPU := e.soc.CPU()
	sortBusy0, sortT0 := socCPU.BusyTime(), e.env.Now()
	chBusy0 := e.zm.channelBusyTimes(nil)
	keySorter.planSplit = func(n int) int {
		sig := e.signals()
		if dt := e.env.Now() - sortT0; dt > 0 {
			sig.SoCUtil = float64(socCPU.BusyTime()-sortBusy0) /
				(float64(dt) * float64(socCPU.Capacity()))
			for i, b := range e.zm.channelBusyTimes(nil) {
				if u := float64(b-chBusy0[i]) / float64(dt); u > sig.ChannelUtil {
					sig.ChannelUtil = u
				}
			}
		}
		return compaction.DecideSplit(sig, n).HostRuns
	}
	keySorter.submitAssist = e.submitAssist
	keySorter.collectAssist = e.collectAssist

	// Pass over sorted keys, as the sort hands them over: drop duplicate
	// keys, assign destination offsets, build PIDX blocks + sketch, and
	// scatter destination entries into buckets by VLOG position (the inverse
	// permutation, bucketed so the value pass needs no log-round merging).
	pidx := e.zm.NewCluster(ZonePIDX)
	pidxW := e.newIndexWriter(pidx, pl)
	pidxW.moved = &ks.progress.BytesMoved
	// The destination pass reads the VLOG beside the destination buckets and
	// writes the value buckets: the buckets keep off the VLOG's channels.
	vlogApart := []*Cluster{ks.vlog}
	destBuckets := e.newBucketWriter(uint64(ks.vlog.Len())+1, &ks.progress.BytesMoved)
	destBuckets.app.pl = pl
	destBuckets.apart = vlogApart
	var (
		valBuckets *bucketWriter
		sorted     *Cluster
		w          chunkWriter
	)
	// A job that fails releases what it was writing once its stages have
	// stopped: PIDX, SORTED_VALUES and the spilled buckets (a success
	// released the buckets already). The logs stay the keyspace's. A zone
	// whose reset fails too is left to the recovery sweep.
	defer func() {
		w.stop(p)
		_ = pidxW.app.stop(p)
		if err == nil {
			return
		}
		_ = destBuckets.release(p)
		if valBuckets != nil {
			_ = valBuckets.release(p)
		}
		_ = pidx.Release(p)
		if sorted != nil {
			_ = sorted.Release(p)
		}
	}()
	var destOff, vlogEnd uint64
	var livePairs, keyBytes int64
	var lastKey []byte
	haveLast := false
	blockSz := int64(e.cfg.BlockBytes)
	codec := klogCodec{}
	dcodec := destCodec{}
	var enc []byte // one record's encoding; the writers below copy it
	klog := newFrameSource(ks.klog, codec, ks.logFrames, pl)
	defer klog.pf.stop(p)
	err = keySorter.Stream(p, klog, func(p *sim.Proc, rec klogEntry) error {
		// The merge stage walks the sorted-key bytes, in DRAM or in a run.
		keyBytes += int64(len(codec.Encode(enc[:0], rec)))
		ks.progress.Stage = compaction.StageMerge
		ks.progress.GranulesTotal = granules(keySorter.fed, blockSz)
		ks.progress.GranulesDone = uint32(keyBytes / blockSz)
		if haveLast && bytes.Equal(rec.key, lastKey) {
			return nil // older duplicate, superseded
		}
		lastKey = append(lastKey[:0], rec.key...)
		haveLast = true
		if rec.isTombstone() {
			return nil // newest record is a delete: the key vanishes
		}
		livePairs++
		vlogEnd = max(vlogEnd, rec.vlogOff+uint64(rec.vlen))
		de := destEntry{vlogOff: rec.vlogOff, destOff: destOff, vlen: rec.vlen}
		enc = dcodec.Encode(enc[:0], de)
		if err := destBuckets.add(p, rec.vlogOff, enc); err != nil {
			return err
		}
		enc = codec.Encode(enc[:0], pidxEntry{key: rec.key, vlen: rec.vlen, vlogOff: destOff})
		if err := pidxW.add(p, enc, rec.key); err != nil {
			return err
		}
		destOff += uint64(rec.vlen)
		return nil
	})
	if err != nil {
		return compacted{}, err
	}
	ks.progress.GranulesDone = ks.progress.GranulesTotal
	ks.progress.BytesMoved += keySorter.written
	ks.progress.HostRuns = clampU16(keySorter.hostRuns)
	ks.progress.DeviceRuns = clampU16(keySorter.deviceRuns)
	totalValueBytes := destOff
	if err := destBuckets.finish(p); err != nil {
		return compacted{}, err
	}
	if err := pidxW.finish(p); err != nil {
		return compacted{}, err
	}

	// Step 2: sort the values using the sorted keys. The destination pass
	// reads, per destination bucket, the VLOG span its entries cover (the
	// VLOG once, up to its last live value). Values that fit the sort budget
	// it copies straight to their places in one span of SoC DRAM, which the
	// value pass appends to SORTED_VALUES; larger ones it scatters into value
	// buckets by destination, which the value pass reads ahead and places in
	// turn. Value bytes move once, or twice, regardless of dataset size — the
	// payoff of key-value separation.
	vp := &valuePass{e: e, ks: ks}
	defer vp.stop(p)
	var fit *valuePlacer // places every value, when they fit the budget
	if totalValueBytes <= uint64(e.cfg.SortBudgetBytes) {
		fit = vp.open(int(totalValueBytes))
	}
	valBuckets = e.newBucketWriter(totalValueBytes+1, &ks.progress.BytesMoved)
	valBuckets.app.pl = pl
	valBuckets.apart = vlogApart
	gatherer := valueGatherer{vlog: clusterWindow{c: ks.vlog, pf: pl.prefetch(span{ks.vlog, 0, int64(vlogEnd)})}}
	defer gatherer.vlog.pf.stop(p)
	defer destBuckets.readAhead(pl).stop(p)
	// A spilled pass spreads each bucket over the cores a batch sort takes;
	// the placed pass stays on one (DESIGN.md §3, "Bucket passes").
	destCPU := e.newPassCPU(phaseDestPass, fit == nil)
	for b, db := range destBuckets.buckets() {
		lo := uint64(b) * destBuckets.width
		dents, err := gatherer.gather(p, destCPU, db, ks.vlog, lo, destBuckets.width)
		if err != nil {
			return compacted{}, err
		}
		for _, de := range dents {
			if fit != nil {
				err = fit.put(de.destOff, gatherer.value(de))
			} else {
				enc = valueCodec{}.Encode(enc[:0], valueRec{destOff: de.destOff, value: gatherer.value(de)})
				err = valBuckets.add(p, de.destOff, enc)
			}
			if err != nil {
				return compacted{}, err
			}
		}
	}
	if err := valBuckets.finish(p); err != nil {
		return compacted{}, err
	}
	if err := destBuckets.release(p); err != nil {
		return compacted{}, err
	}

	sorted = e.zm.NewCluster(ZoneSortedValues, pidx) // every get reads both
	ks.progress.Stage = compaction.StageValues
	ks.joinable = false
	ks.progress.GranulesDone = 0
	ks.progress.GranulesTotal = granules(int64(totalValueBytes), blockSz)
	w.open(sorted, pl, &ks.progress.BytesMoved)
	vp.start(&w, pidx, ks.joined, pl)
	if fit != nil {
		if err := vp.write(p); err != nil {
			return compacted{}, err
		}
	}
	defer valBuckets.readAhead(pl).stop(p)
	valueCPU := e.newPassCPU(phaseValuePass, true)
	for _, vb := range valBuckets.buckets() {
		if err := vp.place(p, valueCPU, vb); err != nil {
			return compacted{}, err
		}
	}
	if err := vp.join(p); err != nil {
		return compacted{}, err
	}
	if vp.next != totalValueBytes {
		return compacted{}, fmt.Errorf("core: value sort produced gap: %d of %d value bytes placed", vp.next, totalValueBytes)
	}
	if err := w.finish(p); err != nil {
		return compacted{}, err
	}
	if err := valBuckets.release(p); err != nil {
		return compacted{}, err
	}
	// Fresh heat table sized to the sorted-values granules: placement
	// decisions restart from cold after every compaction pass.
	heat := compaction.NewHeatTable(int((sorted.Len() + blockSz - 1) / blockSz))
	return compacted{pidx: pidx, sorted: sorted, sketch: pidxW.sketch, kept: pidxW.kept, live: livePairs, heat: heat}, nil
}

// valuePass appends a compaction's placed values to SORTED_VALUES in
// destination order while every index that joined the compaction extracts
// from them. The extraction procs of one span run while the next is placed,
// so the pass keeps two of everything they read — the placed span, and the
// span's PIDX entries with their keys — and fills them in turn: a span is
// opened only once the other has been written, so it is never the one being
// extracted from. Its placers, entries and arenas grow to the largest span
// once, and both spans count in the engine's DRAM gauge while open.
type valuePass struct {
	e       *Engine
	ks      *Keyspace
	w       *chunkWriter
	cursor  *pidxCursor // the PIDX entries of the values, read ahead; nil without joined indexes
	stages  []*sidxStage
	spans   [2]valueSpan
	fill    int         // the span opened next; the other was written last
	held    int         // the spans' bytes counted in the DRAM gauge
	extract []*sim.Proc // extracting from the span written last, until joined
	next    uint64      // the destination of the next value
}

// valueSpan is one of the value pass's two buffers: a placer's span, and the
// PIDX entries of its values with their keys copied into an arena.
type valueSpan struct {
	placer valuePlacer
	ents   []pidxEntry
	keys   batchArena
}

// start begins the pass into w: the indexes in stages extract from the
// values, pairing each with its entry of pidx, read ahead by pl.
func (vp *valuePass) start(w *chunkWriter, pidx *Cluster, stages []*sidxStage, pl pipeline) {
	vp.w, vp.stages = w, stages
	if len(stages) > 0 {
		vp.cursor = &pidxCursor{win: clusterWindow{c: pidx, pf: pl.prefetch(whole(pidx))}, cfg: vp.e.cfg}
	}
}

// open starts the next span, of at most bound bytes from the next
// destination, and returns its placer.
func (vp *valuePass) open(bound int) *valuePlacer {
	v := &vp.spans[vp.fill].placer
	v.open(vp.next, bound)
	vp.count()
	return v
}

// place places spilled value bucket bk, charging cpu, in the next span and
// writes it.
func (vp *valuePass) place(p *sim.Proc, cpu *passCPU, bk bucket) error {
	if bk.len() == 0 {
		return nil
	}
	if err := vp.open(bk.valueBytes()).place(p, cpu, bk); err != nil {
		return err
	}
	return vp.write(p)
}

// count brings the DRAM gauge to the bytes both spans hold.
func (vp *valuePass) count() {
	held := len(vp.spans[0].placer.out) + len(vp.spans[1].placer.out)
	vp.e.dram.Add(float64(held - vp.held))
	vp.held = held
}

// write appends the values placed in the open span to SORTED_VALUES from
// next on, and starts each joined index extracting from them once its
// extraction of the span before has joined, so every sorter takes its pairs
// in PIDX order. A declared index's extraction failure is its error.
func (vp *valuePass) write(p *sim.Proc) error {
	vs := &vp.spans[vp.fill]
	vals, n, err := vs.placer.placed()
	if err != nil || n == 0 {
		return err
	}
	vp.fill ^= 1
	if vp.cursor != nil {
		// The n values are the next n PIDX entries, their keys copied for
		// the extraction procs; each slices its value by vlen.
		vs.ents = vs.ents[:0]
		vs.keys.reset()
		at, end := vp.next, vp.next+uint64(len(vals))
		for i := 0; i < n; i++ {
			ent, ok, err := vp.cursor.next(p)
			if err != nil {
				return err
			}
			if !ok || ent.vlogOff != at || at+uint64(ent.vlen) > end {
				return fmt.Errorf("core: pidx/value streams diverged: %d+%d vs %d", ent.vlogOff, ent.vlen, at)
			}
			ent.key = append(vs.keys.room(len(ent.key)), ent.key...)
			vs.keys.commit(len(ent.key))
			vs.ents = append(vs.ents, ent)
			at += uint64(ent.vlen)
		}
		if err := vp.join(p); err != nil {
			return err
		}
		vp.extract = vp.e.extractStaged(vp.stages, vs.ents, vals, vp.next)
	}
	vp.next += uint64(len(vals))
	vp.ks.progress.GranulesDone = granules(int64(vp.next), int64(vp.e.cfg.BlockBytes))
	return vp.w.write(p, vals)
}

// join waits for the extraction of the span written last and returns a
// declared index's failure.
func (vp *valuePass) join(p *sim.Proc) error {
	p.Join(vp.extract...)
	vp.extract = nil
	for _, st := range vp.stages {
		if st.declared && st.err != nil {
			return st.err
		}
	}
	return nil
}

// stop ends the pass on any exit: it joins the extraction, stops the PIDX
// read-ahead and lets go of both spans.
func (vp *valuePass) stop(p *sim.Proc) {
	_ = vp.join(p) // a failure it reports was returned already, or is reported by the job
	if vp.cursor != nil {
		vp.cursor.win.pf.stop(p)
	}
	for i := range vp.spans {
		vp.spans[i].placer.release()
	}
	vp.count()
}

// granules returns how many blockSz granules n bytes touch.
func granules(n, blockSz int64) uint32 { return uint32((n + blockSz - 1) / blockSz) }

// klogKey is a KLOG entry's sort key.
func klogKey(e klogEntry) []byte { return e.key }

// compareKlog orders KLOG entries for compaction, on the device and in the
// host's share of a collaborative merge alike: key ascending, and among equal
// keys the larger vlogOff first (the most recently inserted duplicate wins).
// A tombstone does not advance the VLOG, so it can share a vlogOff with a
// LATER put of the same key — on that tie the put is newer and sorts first.
func compareKlog(a, b klogEntry) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	if a.vlogOff != b.vlogOff {
		return cmp.Compare(b.vlogOff, a.vlogOff)
	}
	switch at, bt := a.isTombstone(), b.isTombstone(); {
	case at == bt:
		return 0
	case bt:
		return -1
	default:
		return 1
	}
}

// pidxCursor walks PIDX entries in block order — a separate index build's
// scan, and the consolidated build pairing primary keys with the streaming
// sorted values. It reads the blocks through a clusterWindow, 256 KiB (64
// blocks) per ReadAt, and parses and verifies each block from the window when
// the walk reaches it, into one reused offset table.
type pidxCursor struct {
	win clusterWindow
	cfg Config // BlockBytes, DisableVerify
	// blockCPU, when set, is charged one BlockOp per block parsed.
	blockCPU *host.Meter
	blockIdx int64 // the next block to parse
	blk      pidxBlock
	pos      int
}

// next returns the following entry, or ok=false after the last one. Its key
// views the window and is valid until the next call (see recordSource).
func (cur *pidxCursor) next(p *sim.Proc) (ent pidxEntry, ok bool, err error) {
	for cur.pos >= cur.blk.len() {
		bs := cur.cfg.BlockBytes
		if (cur.blockIdx+1)*int64(bs) > cur.win.c.Len() {
			return pidxEntry{}, false, nil
		}
		b, err := cur.win.read(p, cur.blockIdx*int64(bs), bs)
		if err != nil {
			return pidxEntry{}, false, err
		}
		v, err := parseIndexBlock(cur.blk.offs, b, !cur.cfg.DisableVerify, pidxFormat)
		if err != nil {
			return pidxEntry{}, false, err
		}
		if cur.blockCPU != nil {
			cur.blockCPU.BlockOp(p, 1)
		}
		cur.blockIdx++
		cur.blk, cur.pos = pidxBlock{v}, 0
	}
	ent = cur.blk.entry(cur.pos)
	cur.pos++
	return ent, true, nil
}

// clusterWindow reads byte spans from a cluster through a sliding chunked
// window, turning mostly-ascending access into sequential chunked reads. With
// pf set — a prefetcher on c from winOff on — the window slides along pf's
// chunks instead, and reads must ascend.
type clusterWindow struct {
	c      *Cluster
	pf     *prefetcher
	win    []byte
	winOff int64
	last   []byte // the span read handed out last
}

// read returns n bytes at offset off as a view of the window, valid until the
// next read (the window slides in place; see recordSource).
func (w *clusterWindow) read(p *sim.Proc, off int64, n int) ([]byte, error) {
	poison(w.last)
	need := int64(n)
	for w.pf != nil && off+need > w.winOff+int64(len(w.win)) {
		if k := min(off-w.winOff, int64(len(w.win))); k > 0 {
			w.win = w.win[:copy(w.win, w.win[k:])]
			w.winOff += k
		}
		chunk, err := w.pf.next(p)
		if err != nil {
			return nil, err
		}
		w.win = append(w.win, chunk...)
	}
	if off < w.winOff || off+need > w.winOff+int64(len(w.win)) {
		if w.pf != nil {
			return nil, fmt.Errorf("core: window read at %d behind its stream at %d", off, w.winOff)
		}
		chunk := min(max(need, scanChunk), w.c.Len()-off)
		if chunk < need {
			return nil, fmt.Errorf("core: cluster truncated at %d", off)
		}
		w.win = slices.Grow(w.win[:0], int(chunk))[:chunk]
		if err := w.c.ReadAt(p, w.win, off); err != nil {
			return nil, err
		}
		w.winOff = off
	}
	o := off - w.winOff
	w.last = w.win[o : o+need : o+need]
	return w.last, nil
}

// indexBlockHdr is the fixed index-block header: u16 entry count + u32
// CRC32-C over the count and the entry/padding bytes (the CRC field itself is
// excluded). The header CRC is defense-in-depth under the cluster's granule
// checksums: an index block decoded from any source self-verifies.
const indexBlockHdr = 6

// indexBlockSum computes a block's header checksum: the count bytes plus
// everything after the header.
func indexBlockSum(buf []byte) uint32 {
	sum := crc32.Update(0, castagnoli, buf[0:2])
	return crc32.Update(sum, castagnoli, buf[indexBlockHdr:])
}

// appendBurst is the size of the bursts staged index blocks and bucket records
// are appended to their clusters in.
const appendBurst = 64 << 10

// blockWriter packs length-prefixed entries into fixed-size blocks: each
// block starts with the indexBlockHdr header, entries never span blocks, and
// the remainder is zero padding. The first key of each block becomes a sketch
// pivot. Finished blocks are staged and appended appendBurst bytes at a time
// through app; staging a block reserves its stripe, so the cluster takes its
// zones from the pool exactly when an Append per block would have. A writer
// opened with a keep budget also copies the blocks it appends, from the first
// on and one slab per burst, into kept until the copies would pass that
// budget: the blocks a build hands the index cache (Engine.admitBuilt) once
// the cluster is reachable.
type blockWriter struct {
	cluster   *Cluster
	blockSize int
	moved     *uint64 // when set, advanced by the bytes of every append
	buf       []byte  // staged blocks, then the block being built from cur on
	cur       int
	count     uint16
	blockIdx  int64
	sketch    []sketchEntry
	keep      int64    // bytes of blocks still to copy into kept
	kept      [][]byte // slabs of whole blocks, in block order
	app       appender
}

func newBlockWriter(c *Cluster, blockSize int) *blockWriter {
	return &blockWriter{cluster: c, blockSize: blockSize, buf: make([]byte, 0, max(appendBurst, blockSize))}
}

// newIndexWriter opens a PIDX or SIDX block writer on c, staged by pl, that
// keeps its blocks up to the index cache's free budget as it stands now.
func (e *Engine) newIndexWriter(c *Cluster, pl pipeline) *blockWriter {
	w := newBlockWriter(c, e.cfg.BlockBytes)
	w.keep = e.idxCache.free()
	w.app.pl = pl
	return w
}

// add appends one encoded entry, starting a new block when needed.
func (w *blockWriter) add(p *sim.Proc, entry []byte, firstKey []byte) error {
	if len(entry)+indexBlockHdr > w.blockSize {
		return fmt.Errorf("core: index entry of %d bytes exceeds block size %d", len(entry), w.blockSize)
	}
	if len(w.buf) > w.cur && len(w.buf)-w.cur+len(entry) > w.blockSize {
		if err := w.endBlock(p, false); err != nil {
			return err
		}
	}
	if len(w.buf) == w.cur {
		w.buf = append(w.buf, 0, 0, 0, 0, 0, 0) // count + CRC placeholder
		w.sketch = append(w.sketch, sketchEntry{
			pivot: append([]byte(nil), firstKey...),
			block: w.blockIdx,
		})
	}
	w.buf = append(w.buf, entry...)
	w.count++
	return nil
}

// endBlock pads and checksums the block being built and reserves the stripe
// it lands in. It appends the staged blocks when another would not fit the
// stage, or when last is set.
func (w *blockWriter) endBlock(p *sim.Proc, last bool) error {
	if len(w.buf) > w.cur {
		blk := w.buf[w.cur : w.cur+w.blockSize]
		clear(blk[len(w.buf)-w.cur:])
		binary.LittleEndian.PutUint16(blk[0:], w.count)
		binary.LittleEndian.PutUint32(blk[2:], indexBlockSum(blk))
		w.buf, w.cur, w.count = w.buf[:w.cur+w.blockSize], w.cur+w.blockSize, 0
		w.blockIdx++
		c := w.cluster
		if err := c.ensureStripe((c.Len() + int64(len(w.buf)) - 1) / int64(c.blockSz)); err != nil {
			return err
		}
	}
	if len(w.buf) == 0 || !last && len(w.buf)+w.blockSize <= cap(w.buf) {
		return nil
	}
	if n := min(int64(len(w.buf)), w.keep/int64(w.blockSize)*int64(w.blockSize)); n > 0 {
		w.kept = append(w.kept, bytes.Clone(w.buf[:n]))
		w.keep -= n
	}
	if w.moved != nil {
		*w.moved += uint64(len(w.buf))
	}
	var err error
	w.buf, err = w.app.put(p, w.cluster, w.buf)
	w.cur = 0
	return err
}

// finish appends the last blocks, stops app's stage and seals the cluster.
func (w *blockWriter) finish(p *sim.Proc) error {
	if err := cmp.Or(w.endBlock(p, true), w.app.stop(p)); err != nil {
		return err
	}
	return w.cluster.Seal(p)
}

// checkIndexBlock validates a block's framing; verify additionally demands
// the header checksum (skipped in the DisableVerify negative control).
func checkIndexBlock(buf []byte, verify bool) error {
	if len(buf) < indexBlockHdr {
		return ErrRecordCorrupt
	}
	if verify && binary.LittleEndian.Uint32(buf[2:]) != indexBlockSum(buf) {
		return fmt.Errorf("%w: index block checksum", ErrCorrupted)
	}
	return nil
}
