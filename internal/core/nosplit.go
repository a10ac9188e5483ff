package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"

	"kvcsd/internal/sim"
)

// This file implements the DisableKVSeparation ablation path: whole pairs
// are stored in the KLOG and compaction sorts them directly, so value bytes
// travel through every external-merge round instead of moving once. It
// exists to quantify the benefit of the paper's two-step key/value sort.

// pairRec is one combined record: key, value, and an insertion sequence used
// to keep the newest duplicate.
type pairRec struct {
	key   []byte
	value []byte
	seq   uint64
}

// pairCodec serializes combined records:
// klen u16 | vlen u32 | seq u64 | key | value.
type pairCodec struct{}

func (pairCodec) Encode(dst []byte, r pairRec) []byte {
	var hdr [14]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(len(r.key)))
	binary.LittleEndian.PutUint32(hdr[2:], uint32(len(r.value)))
	binary.LittleEndian.PutUint64(hdr[6:], r.seq)
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.key...)
	return append(dst, r.value...)
}

func (pairCodec) Decode(data []byte, atEOF bool) (pairRec, int, error) {
	if len(data) < 14 {
		if atEOF && len(data) > 0 {
			return pairRec{}, 0, fmt.Errorf("%w: short pair header", ErrRecordCorrupt)
		}
		return pairRec{}, 0, nil
	}
	klen := int(binary.LittleEndian.Uint16(data[0:]))
	vlen := int(binary.LittleEndian.Uint32(data[2:]))
	if len(data) < 14+klen+vlen {
		if atEOF {
			return pairRec{}, 0, fmt.Errorf("%w: short pair body", ErrRecordCorrupt)
		}
		return pairRec{}, 0, nil
	}
	k, n := 14+klen, 14+klen+vlen
	return pairRec{
		seq:   binary.LittleEndian.Uint64(data[6:]),
		key:   data[14:k:k],
		value: data[k:n:n],
	}, n, nil
}

func (pairCodec) SizeHint(r pairRec) int { return 14 + len(r.key) + len(r.value) + 48 }

// pairKey is a combined record's sort key.
func pairKey(r pairRec) []byte { return r.key }

// comparePair orders combined records by key ascending and, among equal keys,
// the later insertion first (the low bit of seq is the deletion mark).
func comparePair(a, b pairRec) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(b.seq>>1, a.seq>>1)
}

// flushBufferCombined writes whole pairs into the KLOG (no VLOG).
func (e *Engine) flushBufferCombined(p *sim.Proc, ks *Keyspace) error {
	if len(ks.buf) == 0 {
		return nil
	}
	e.cpu[phaseIngest].KVOp(p, int64(len(ks.buf)))
	codec := pairCodec{}
	buf := append(e.zm.scratch.get(0), logFrameReserve[:]...)
	defer func() { e.zm.scratch.put(buf) }() // on a failed append too
	for _, pr := range ks.buf {
		ks.combinedSeq++
		seq := ks.combinedSeq << 1
		if pr.tomb {
			seq |= 1 // low bit marks deletion
		}
		buf = codec.Encode(buf, pairRec{key: pr.key, value: pr.value, seq: seq})
	}
	if err := ks.appendLogFrame(p, buf); err != nil {
		return err
	}
	ks.resetBuffer()
	return nil
}

// sortPairs is the combined layout's compaction: one external sort of pair
// records in which every merge round reads and writes the full values. The
// final merge streams the newest live version of each key into PIDX and its
// value into SORTED_VALUES. It keeps no heat table.
func (e *Engine) sortPairs(p *sim.Proc, ks *Keyspace) (_ compacted, err error) {
	pl := e.pipeline(ks)
	sorter := newEngineSorter[pairRec](e, phaseRunPair, pairCodec{}, pairKey, comparePair)
	sorter.pipe = pl
	pidx := e.zm.NewCluster(ZonePIDX)
	pidxW := e.newIndexWriter(pidx, pl)
	pidxW.moved = &ks.progress.BytesMoved
	sorted := e.zm.NewCluster(ZoneSortedValues, pidx) // every get reads both
	var w chunkWriter
	w.open(sorted, pl, &ks.progress.BytesMoved)
	klog := newFrameSource(ks.klog, pairCodec{}, ks.logFrames, pl)
	// A job that fails releases PIDX and SORTED_VALUES once its stages have
	// stopped. The KLOG stays the keyspace's. A zone whose reset fails too is
	// left to the recovery sweep.
	defer func() {
		klog.pf.stop(p)
		w.stop(p)
		_ = pidxW.app.stop(p)
		if err != nil {
			_ = pidx.Release(p)
			_ = sorted.Release(p)
		}
	}()
	var enc []byte
	var destOff uint64
	var livePairs int64
	var lastKey []byte
	haveLast := false
	err = sorter.Stream(p, klog, func(sp *sim.Proc, rec pairRec) error {
		if haveLast && bytes.Equal(rec.key, lastKey) {
			return nil // older duplicate
		}
		lastKey = append(lastKey[:0], rec.key...)
		haveLast = true
		if rec.seq&1 == 1 {
			return nil // newest record is a delete
		}
		livePairs++
		enc = klogCodec{}.Encode(enc[:0], pidxEntry{key: rec.key, vlen: uint32(len(rec.value)), vlogOff: destOff})
		if err := pidxW.add(sp, enc, rec.key); err != nil {
			return err
		}
		destOff += uint64(len(rec.value))
		return w.put(sp, rec.value)
	})
	ks.progress.BytesMoved += sorter.written
	if err == nil {
		err = w.finish(p)
	}
	if err == nil {
		err = pidxW.finish(p)
	}
	return compacted{pidx: pidx, sorted: sorted, sketch: pidxW.sketch, kept: pidxW.kept, live: livePairs}, err
}
