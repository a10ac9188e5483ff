package core

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// queryableKeyspace returns the keyspace if it is COMPACTED (the only state
// the paper allows queries in).
func (e *Engine) queryableKeyspace(name string) (*Keyspace, error) {
	ks, err := e.Keyspace(name)
	if err != nil {
		return nil, err
	}
	if ks.pendingDelete {
		return nil, ErrDeleted
	}
	if ks.state != StateCompacted {
		return nil, fmt.Errorf("%w: %s is %s, queries need COMPACTED", ErrKeyspaceState, name, ks.state)
	}
	return ks, nil
}

// sketchFind returns the index of the last sketch pivot <= key; -1 when key
// precedes every pivot. Correct for unique keys (PIDX).
func sketchFind(sketch []sketchEntry, key []byte) int {
	lo, hi := 0, len(sketch)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(sketch[mid].pivot, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// sketchStart returns the first sketch index whose block can contain entries
// with key >= lo when duplicate keys may span blocks (SIDX): one before the
// first pivot >= lo, clamped to 0.
func sketchStart(sketch []sketchEntry, lo []byte) int {
	i, hi := 0, len(sketch)
	for i < hi {
		mid := (i + hi) / 2
		if bytes.Compare(sketch[mid].pivot, lo) < 0 {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	if i > 0 {
		i--
	}
	return i
}

// Get answers a primary point query: sketch -> one PIDX record (from the
// index cache, or from its block) -> one value read. All work happens in the
// device (paper §V, "Query Processing").
func (e *Engine) Get(p *sim.Proc, name string, key []byte) ([]byte, bool, error) {
	ks, err := e.queryableKeyspace(name)
	if err != nil {
		return nil, false, err
	}
	e.st.Gets.Add(1)
	ent, ok, err := e.lookupPidx(p, ks, key, 8)
	if err != nil || !ok {
		return nil, false, err
	}
	val := make([]byte, ent.vlen)
	if err := ks.sorted.ReadAt(p, val, int64(ent.vlogOff)); err != nil {
		return nil, false, err
	}
	ks.touchHeat(int64(ent.vlogOff), len(val), e.cfg.BlockBytes)
	e.st.AppRead.Add(int64(len(val)))
	return val, true, nil
}

// Exist answers a primary existence probe without reading the value.
func (e *Engine) Exist(p *sim.Proc, name string, key []byte) (bool, error) {
	ks, err := e.queryableKeyspace(name)
	if err != nil {
		return false, err
	}
	_, ok, err := e.lookupPidx(p, ks, key, 0)
	return ok, err
}

// lookupPidx finds key's PIDX record: the sketch names its block, then the
// index cache's record list answers, or else the block (cached or read from
// media) is binary-searched and a found record marked touched, so that it
// outlives the block in the cache. Either way the SoC is charged the sketch
// search, one block op and searchCompares for the in-block search (Get 8,
// Exist none), so a record hit costs what a block hit does. The entry's key
// views the cache.
func (e *Engine) lookupPidx(p *sim.Proc, ks *Keyspace, key []byte, searchCompares int64) (pidxEntry, bool, error) {
	if ks.count == 0 || bytes.Compare(key, ks.minKey) < 0 || bytes.Compare(key, ks.maxKey) > 0 {
		return pidxEntry{}, false, nil
	}
	bi := sketchFind(ks.sketch, key)
	if bi < 0 {
		return pidxEntry{}, false, nil
	}
	e.cpu[phaseQuery].Compares(p, 16) // sketch binary search
	block := ks.sketch[bi].block
	if ent, ok := e.idxCache.getRecord(ks.pidx.id, block, key); ok {
		e.cpu[phaseQuery].BlockOp(p, 1)
		e.cpu[phaseQuery].Compares(p, searchCompares)
		return ent, true, nil
	}
	blk, err := e.readIndexBlockCached(p, ks.pidx, block)
	if err != nil {
		return pidxEntry{}, false, err
	}
	e.cpu[phaseQuery].BlockOp(p, 1)
	i := blk.search(key)
	e.cpu[phaseQuery].Compares(p, searchCompares)
	if i >= blk.len() || !bytes.Equal(blk.key(i), key) {
		return pidxEntry{}, false, nil
	}
	blk.touch(i)
	return blk.entry(i), true, nil
}

// RangePrimary streams pairs with lo <= key < hi (nil bounds open) in key
// order to fn until fn returns false or limit pairs are emitted (0 = all).
// Because SORTED_VALUES co-sorts values with keys, the value bytes of a
// primary range are one contiguous span. The scan plans each window before
// it reads: it walks PIDX, one block op per block, collecting the entries it
// will emit until hi, the limit, scanWindowEntries, or an entry that would
// stretch the value span past scanChunk; then it reads exactly that span in
// one ReadAt and emits from it. A short scan reads only its granules, a long
// one reads in scanChunk bursts.
func (e *Engine) RangePrimary(p *sim.Proc, name string, lo, hi []byte, limit int, fn func(nvme.KVPair) bool) (int, error) {
	ks, err := e.queryableKeyspace(name)
	if err != nil {
		return 0, err
	}
	e.st.Scans.Add(1)
	if ks.count == 0 {
		return 0, nil
	}
	var bi int64
	if lo != nil {
		i := sketchFind(ks.sketch, lo)
		if i > 0 {
			bi = ks.sketch[i].block
		}
		e.cpu[phaseQuery].Compares(p, 16)
	}
	totalBlocks := ks.pidx.Len() / int64(e.cfg.BlockBytes)
	// The plan and the window are lent by the engine's free lists: the scan
	// holds them across the reads it yields in, while other scans run.
	plan := e.getPlan(limit)
	planned := 0 // the longest plan so far: what putPlan must clear
	var win []byte
	defer func() {
		e.putPlan(plan[:max(planned, len(plan))])
		if win != nil {
			e.zm.scratch.put(win)
		}
	}()
	var blk pidxBlock
	i, emitted, end := 0, 0, false
	for !end {
		planned = max(planned, len(plan))
		plan = plan[:0]
		var start, stop int64 // the planned value span
		for len(plan) < scanWindowEntries && (limit == 0 || emitted+len(plan) < limit) {
			if i == blk.len() {
				if bi == totalBlocks {
					end = true
					break
				}
				if blk, err = e.readIndexBlockCached(p, ks.pidx, bi); err != nil {
					return emitted, err
				}
				e.cpu[phaseQuery].BlockOp(p, 1)
				bi, i = bi+1, 0
				continue
			}
			ent := blk.entry(i)
			if lo != nil && bytes.Compare(ent.key, lo) < 0 {
				i++
				continue
			}
			if hi != nil && bytes.Compare(ent.key, hi) >= 0 {
				end = true
				break
			}
			vs, ve := int64(ent.vlogOff), int64(ent.vlogOff)+int64(ent.vlen)
			if len(plan) == 0 {
				start, stop = vs, ve
			} else if vs < start || max(stop, ve)-start > scanChunk {
				break // ent opens the next window
			}
			stop = max(stop, ve)
			plan = append(plan, ent)
			i++
		}
		if len(plan) == 0 {
			break
		}
		if n := int(stop - start); cap(win) < n {
			if win != nil {
				e.zm.scratch.put(win)
			}
			win = e.zm.scratch.get(n)
		} else {
			win = win[:n]
		}
		if err := ks.sorted.ReadAt(p, win, start); err != nil {
			return emitted, err
		}
		ks.touchHeat(start, len(win), e.cfg.BlockBytes)
		for _, ent := range plan {
			off := int64(ent.vlogOff) - start
			pr := ownedPair(ent.key, win[off:off+int64(ent.vlen)])
			e.st.AppRead.Add(int64(len(pr.Value)))
			if !fn(pr) {
				return emitted + 1, nil
			}
			emitted++
		}
		if limit > 0 && emitted >= limit {
			break
		}
	}
	return emitted, nil
}

// scanWindowEntries caps the entries one RangePrimary window plans, so a
// keyspace of tiny values cannot grow a plan without bound.
const scanWindowEntries = scanChunk / 32

// keptPlans is how many planning buffers the engine keeps between scans.
const keptPlans = 4

// getPlan lends a cleared, empty planning buffer; a new one is sized for a
// scan of limit pairs.
func (e *Engine) getPlan(limit int) []pidxEntry {
	n := len(e.scanPlans)
	if n == 0 {
		return make([]pidxEntry, 0, min(max(limit, 0), scanWindowEntries))
	}
	b := e.scanPlans[n-1]
	e.scanPlans[n-1] = nil
	e.scanPlans = e.scanPlans[:n-1]
	return b
}

// putPlan hands a planning buffer back; b must cover every entry a window
// planned in it. They are cleared first, so a kept buffer pins no index
// block.
func (e *Engine) putPlan(b []pidxEntry) {
	clear(b)
	if len(e.scanPlans) < keptPlans && cap(b) > 0 {
		e.scanPlans = append(e.scanPlans, b[:0])
	}
}

// RangeSecondary streams pairs whose secondary key is in [lo, hi) to fn in
// secondary-key order. The device scans SIDX blocks for matches, then
// fetches the matching values from SORTED_VALUES with reads coalesced in
// offset order — only results cross back to the host (paper §V-VI).
func (e *Engine) RangeSecondary(p *sim.Proc, name, index string, lo, hi []byte, limit int, fn func(nvme.KVPair) bool) (int, error) {
	ks, err := e.queryableKeyspace(name)
	if err != nil {
		return 0, err
	}
	si, ok := ks.secondary[index]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrIndexNotFound, index)
	}
	if si.err != nil {
		return 0, si.err
	}
	if !si.done.Fired() {
		return 0, fmt.Errorf("%w: index %s still building", ErrKeyspaceState, index)
	}
	e.st.Scans.Add(1)
	if ks.count == 0 || len(si.sketch) == 0 {
		return 0, nil
	}

	// Phase 1: collect matching SIDX entries. Duplicate secondary keys may
	// span blocks, so start one block before the first pivot >= lo.
	var bi int64
	if lo != nil {
		bi = si.sketch[sketchStart(si.sketch, lo)].block
		e.cpu[phaseQuery].Compares(p, 16)
	}
	totalBlocks := si.cluster.Len() / int64(e.cfg.BlockBytes)
	var matches []sidxEntry
	for ; bi < totalBlocks; bi++ {
		blk, err := e.readSidxBlockCached(p, si.cluster, bi)
		if err != nil {
			return 0, err
		}
		e.cpu[phaseQuery].BlockOp(p, 1)
		done := false
		for i := 0; i < blk.len(); i++ {
			ent := blk.entry(i)
			if lo != nil && bytes.Compare(ent.skey, lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(ent.skey, hi) >= 0 {
				done = true
				break
			}
			matches = append(matches, ent)
			if limit > 0 && len(matches) >= limit {
				done = true
				break
			}
		}
		if done {
			break
		}
	}
	if len(matches) == 0 {
		return 0, nil
	}

	// Phase 2: fetch values in offset order (coalescing nearby reads), then
	// emit in secondary-key order.
	order := make([]int, len(matches))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(matches[a].svOff, matches[b].svOff) })
	e.cpu[phaseQuery].Compute(p, e.soc.SortCost(int64(len(order))))
	pairs := make([]nvme.KVPair, len(matches))
	const coalesceGap = 64 << 10
	i := 0
	for i < len(order) {
		j := i
		start := int64(matches[order[i]].svOff)
		end := start + int64(matches[order[i]].vlen)
		for j+1 < len(order) {
			n := int64(matches[order[j+1]].svOff)
			ne := n + int64(matches[order[j+1]].vlen)
			if n-end > coalesceGap {
				break
			}
			if ne > end {
				end = ne
			}
			j++
		}
		span := make([]byte, end-start)
		if err := ks.sorted.ReadAt(p, span, start); err != nil {
			return 0, err
		}
		ks.touchHeat(start, len(span), e.cfg.BlockBytes)
		for k := i; k <= j; k++ {
			m := matches[order[k]]
			off := int64(m.svOff) - start
			pairs[order[k]] = ownedPair(m.pkey, span[off:off+int64(m.vlen)])
		}
		i = j + 1
	}

	emitted := 0
	for _, pr := range pairs {
		e.st.AppRead.Add(int64(len(pr.Value)))
		if !fn(pr) {
			return emitted + 1, nil
		}
		emitted++
	}
	return emitted, nil
}

// ownedPair copies a result's key and value into one allocation: a result
// leaves the engine, so it must not view the block or window it was read from.
func ownedPair(key, value []byte) nvme.KVPair {
	kv := make([]byte, len(key)+len(value))
	n := copy(kv, key)
	copy(kv[n:], value)
	return nvme.KVPair{Key: kv[:n:n], Value: kv[n:]}
}

// GetSecondary answers a secondary point query (all pairs whose secondary
// key equals key).
func (e *Engine) GetSecondary(p *sim.Proc, name, index string, key []byte, limit int, fn func(nvme.KVPair) bool) (int, error) {
	hi := append(append([]byte(nil), key...), 0) // smallest key > key
	return e.RangeSecondary(p, name, index, key, hi, limit, fn)
}

// KeyspaceInfo returns the keyspace metadata the keyspace manager tracks.
func (e *Engine) KeyspaceInfo(name string) (nvme.KeyspaceInfo, error) {
	ks, err := e.Keyspace(name)
	if err != nil {
		return nvme.KeyspaceInfo{}, err
	}
	return nvme.KeyspaceInfo{
		Name:       ks.name,
		State:      ks.state.String(),
		Pairs:      ks.count,
		Bytes:      ks.bytes,
		MinKey:     ks.minKey,
		MaxKey:     ks.maxKey,
		Secondary:  ks.SecondaryIndexNames(),
		ZoneCount:  ks.ZoneCount(),
		CompactDur: sim.Time(ks.CompactionDuration()),
	}, nil
}
