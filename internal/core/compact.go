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
// installs the result. With stages set (consolidated index construction)
// every surviving pair is also handed to the stages' extractor as the value
// pass streams it.
func (e *Engine) runCompaction(p *sim.Proc, ks *Keyspace, stages []*sidxStage) error {
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
		out, err = e.sortSeparated(p, ks, stages)
	}
	if err != nil {
		return err
	}
	return e.install(p, ks, out)
}

// compacted is a compaction's output: the PIDX cluster and its sketch, the
// SORTED_VALUES cluster, the live pair count, and the heat table to start
// from (nil for a layout that keeps none).
type compacted struct {
	pidx, sorted *Cluster
	sketch       []sketchEntry
	live         int64
	heat         *compaction.HeatTable
}

// install replaces the logs with the indexed form. It persists before
// releasing the old log zones: a power cut after the Persist leaves them as
// orphans for the recovery sweep, whereas releasing first would let a cut
// recover a snapshot whose keyspace still claims reset (or reused) zones.
func (e *Engine) install(p *sim.Proc, ks *Keyspace, out compacted) error {
	oldKlog, oldVlog := ks.klog, ks.vlog
	ks.klog, ks.vlog = nil, nil
	ks.pidx, ks.sorted, ks.sketch, ks.count, ks.heat = out.pidx, out.sorted, out.sketch, out.live, out.heat
	ks.state = StateCompacted
	ks.compactFinish = p.Now()
	if err := e.mgr.Persist(p); err != nil {
		return err
	}
	if err := oldKlog.Release(p); err != nil {
		return err
	}
	return oldVlog.Release(p)
}

// pipeline returns the stage configuration of a compaction of ks: the
// engine's width, with ring occupancy noted against ks.
func (e *Engine) pipeline(ks *Keyspace) pipeline {
	return pipeline{env: e.env, width: e.compactCfg.PipelineWidth, onDelta: func(d int) { e.noteOccupancy(ks, d) }}
}

// sortSeparated executes the paper's two-step deferred compaction on the
// device (§V, "Compaction"):
//
//  1. sort the keys — an external merge sort of the KLOG entries;
//  2. use the sorted keys to sort the values — compute each value's
//     destination offset, bucket the destination entries by VLOG position,
//     gather each bucket's values out of the VLOG span it covers and scatter
//     them into buckets by destination, then copy each bucket's values to
//     their destinations in SORTED_VALUES order;
//
// and then build the PIDX blocks plus the in-memory sketch (one pivot per
// 4 KiB block). All intermediate runs live in temporarily allocated zone
// clusters released as the sort proceeds.
func (e *Engine) sortSeparated(p *sim.Proc, ks *Keyspace, stages []*sidxStage) (compacted, error) {
	// Step 1: sort keys (compareKlog: newest duplicate of a key first).
	ks.progress.Stage = compaction.StageSort
	keySorter := newEngineSorter[klogEntry](e, phaseRunKlog, klogCodec{}, klogKey, compareKlog)
	keySorter.pipe = e.pipeline(ks)
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
		return compaction.DecideSplit(e.compactCfg.Policy, sig, n).HostRuns
	}
	keySorter.submitAssist = e.submitAssist
	keySorter.collectAssist = e.collectAssist
	sortedKeys, err := keySorter.Sort(p, newFrameSource(ks.klog, klogCodec{}, ks.logFrames))
	if err != nil {
		return compacted{}, err
	}
	ks.progress.BytesMoved += keySorter.written
	ks.progress.HostRuns = clampU16(keySorter.hostRuns)
	ks.progress.DeviceRuns = clampU16(keySorter.deviceRuns)

	// Pass over sorted keys: drop duplicate keys, assign destination
	// offsets, build PIDX blocks + sketch, and scatter destination entries
	// into buckets by VLOG position (the inverse permutation, bucketed so
	// the value pass needs no log-round merging).
	pidx := e.zm.NewCluster(ZonePIDX)
	pidxW := newBlockWriter(pidx, e.cfg.BlockBytes)
	destBuckets := newBucketWriter(e.zm, uint64(ks.vlog.Len())+1, e.cfg.SortBudgetBytes)
	var destOff uint64
	var livePairs int64
	var lastKey []byte
	haveLast := false
	blockSz := int64(e.cfg.BlockBytes)
	ks.progress.Stage = compaction.StageMerge
	ks.progress.GranulesDone = 0
	ks.progress.GranulesTotal = uint32((sortedKeys.Len() + blockSz - 1) / blockSz)
	sc := newScanner(sortedKeys, klogCodec{}, 0)
	codec := klogCodec{}
	dcodec := destCodec{}
	var enc []byte // one record's encoding; the writers below copy it
	for {
		rec, ok, err := sc.next(p)
		if err != nil {
			return compacted{}, err
		}
		if !ok {
			break
		}
		ks.progress.GranulesDone = uint32(sc.off / blockSz)
		if haveLast && bytes.Equal(rec.key, lastKey) {
			continue // older duplicate, superseded
		}
		lastKey = append(lastKey[:0], rec.key...)
		haveLast = true
		if rec.isTombstone() {
			continue // newest record is a delete: the key vanishes
		}
		livePairs++
		de := destEntry{vlogOff: rec.vlogOff, destOff: destOff, vlen: rec.vlen}
		enc = dcodec.Encode(enc[:0], de)
		if err := destBuckets.add(p, rec.vlogOff, enc); err != nil {
			return compacted{}, err
		}
		enc = codec.Encode(enc[:0], pidxEntry{key: rec.key, vlen: rec.vlen, vlogOff: destOff})
		if err := pidxW.add(p, enc, rec.key); err != nil {
			return compacted{}, err
		}
		destOff += uint64(rec.vlen)
	}
	totalValueBytes := destOff
	if err := destBuckets.finish(p); err != nil {
		return compacted{}, err
	}
	if err := pidxW.finish(p); err != nil {
		return compacted{}, err
	}
	if err := sortedKeys.Release(p); err != nil {
		return compacted{}, err
	}

	// Step 2: sort the values using the sorted keys — a two-pass
	// distribution sort. Pass one reads, per destination bucket, the VLOG
	// span its entries cover and scatters their values into buckets by
	// destination; pass two reads each value bucket, copies every value to
	// its destination within the span the bucket tiles, and appends the span
	// to SORTED_VALUES. Value bytes move exactly twice regardless of dataset
	// size — the payoff of key-value separation.
	valBuckets := newBucketWriter(e.zm, totalValueBytes+1, e.cfg.SortBudgetBytes)
	var gatherer valueGatherer
	for b, db := range destBuckets.buckets() {
		lo := uint64(b) * destBuckets.width
		dents, err := gatherer.gather(p, e.cpu[phaseDestPass], db, ks.vlog, lo, destBuckets.width)
		if err != nil {
			return compacted{}, err
		}
		for _, de := range dents {
			enc = valueCodec{}.Encode(enc[:0], valueRec{destOff: de.destOff, value: gatherer.value(de)})
			if err := valBuckets.add(p, de.destOff, enc); err != nil {
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

	sorted := e.zm.NewCluster(ZoneSortedValues)
	ks.progress.Stage = compaction.StageValues
	ks.progress.GranulesDone = 0
	ks.progress.GranulesTotal = uint32((int64(totalValueBytes) + blockSz - 1) / blockSz)
	var w chunkWriter
	w.open(sorted, e.pipeline(ks), &ks.progress.BytesMoved)
	defer w.stop(p)
	var nextDest uint64
	var cursor *pidxCursor
	if len(stages) > 0 {
		cursor = &pidxCursor{win: clusterWindow{c: pidx}, cfg: e.cfg}
	}
	var placer valuePlacer
	for _, vb := range valBuckets.buckets() {
		vals, n, err := placer.place(p, e.cpu[phaseValuePass], vb, nextDest)
		if err != nil {
			return compacted{}, err
		}
		if cursor != nil {
			// The bucket's n records are the next n PIDX entries; each slices
			// its value out of the placed span by vlen.
			at, end := nextDest, nextDest+uint64(len(vals))
			for i := 0; i < n; i++ {
				ent, ok, err := cursor.next(p)
				if err != nil {
					return compacted{}, err
				}
				if !ok || ent.vlogOff != at || at+uint64(ent.vlen) > end {
					return compacted{}, fmt.Errorf("core: pidx/value streams diverged: %d+%d vs %d", ent.vlogOff, ent.vlen, at)
				}
				o := at - nextDest
				if err := extractStaged(p, stages, ent.key, at, vals[o:o+uint64(ent.vlen)]); err != nil {
					return compacted{}, err
				}
				at += uint64(ent.vlen)
			}
		}
		nextDest += uint64(len(vals))
		ks.progress.GranulesDone = uint32(int64(nextDest) / blockSz)
		if err := w.write(p, vals); err != nil {
			return compacted{}, err
		}
	}
	if nextDest != totalValueBytes {
		return compacted{}, fmt.Errorf("core: value sort produced gap: %d of %d value bytes placed", nextDest, totalValueBytes)
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
	return compacted{pidx: pidx, sorted: sorted, sketch: pidxW.sketch, live: livePairs, heat: heat}, nil
}

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
// window, turning mostly-ascending access into sequential chunked reads.
type clusterWindow struct {
	c      *Cluster
	win    []byte
	winOff int64
	last   []byte // the span read handed out last
}

// read returns n bytes at offset off as a view of the window, valid until the
// next read (the window slides in place; see recordSource).
func (w *clusterWindow) read(p *sim.Proc, off int64, n int) ([]byte, error) {
	poison(w.last)
	need := int64(n)
	if off < w.winOff || off+need > w.winOff+int64(len(w.win)) {
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
// pivot. Finished blocks are staged and appended appendBurst bytes at a time;
// staging a block reserves its stripe, so the cluster takes its zones from the
// pool exactly when an Append per block would have.
type blockWriter struct {
	cluster   *Cluster
	blockSize int
	buf       []byte // staged blocks, then the block being built from cur on
	cur       int
	count     uint16
	blockIdx  int64
	sketch    []sketchEntry
}

func newBlockWriter(c *Cluster, blockSize int) *blockWriter {
	return &blockWriter{cluster: c, blockSize: blockSize, buf: make([]byte, 0, max(appendBurst, blockSize))}
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
// stage, or when last is set; Append copies them before it yields.
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
	if err := w.cluster.Append(p, w.buf); err != nil {
		return err
	}
	w.buf, w.cur = w.buf[:0], 0
	return nil
}

// finish appends the last blocks and seals the cluster.
func (w *blockWriter) finish(p *sim.Proc) error {
	if err := w.endBlock(p, true); err != nil {
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
