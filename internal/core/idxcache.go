package core

import (
	"bytes"
	"container/list"
	"math/bits"

	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// indexCache is the SoC-DRAM cache of index data: parsed PIDX/SIDX blocks
// and, beside them, the single PIDX records that point lookups found in
// blocks that have since been evicted. KV-CSD does not cache application
// data (paper §VI-B), but keeping recently used *index* data in device memory
// mirrors what the software baseline gets from pinning SSTable index blocks,
// and keeps a point query at one media read for the value.
//
// One budget, capacity, covers both lists; every entry is charged its bytes
// on media (a block its raw length, a record pidxRecHdr + key). A put that
// overflows the budget evicts blocks first, from the LRU end, always keeping
// the block just put, and demotes each evicted block's touched records (those
// Get/Exist found in it) into the record list; only when no other block is
// left are records evicted, LRU first. A point lookup checks the record list,
// then the block list. Records come only from verified, cached blocks and go
// with them in invalidateCluster, so nothing is staler than a cached block.
// While everything fits nothing is evicted and the record list stays empty.
//
// Blocks enter two ways. A lookup that misses reads the block from media and
// puts it; a block already resident (another lookup read it in while this one
// waited on media) stays as it is, touched bits included, and the second
// parse is dropped. A build that just wrote index blocks admits them once the
// metadata frame that makes them reachable is on media (see admit): at the
// LRU end, so they are evicted first, into the free budget only, so admission
// never evicts anything, and never over a block already resident.
type indexCache struct {
	capacity int64
	used     int64
	ll       *list.List
	idx      map[idxKey]*list.Element
	recs     recordList
	// hits, recordHits, misses and admitted are read by the telemetry
	// endpoint while the simulation runs; everything else belongs to the sim
	// goroutine. hits counts block and record hits, so hits + misses is every
	// lookup; admitted counts the blocks builds admitted.
	hits       stats.Counter
	recordHits stats.Counter
	misses     stats.Counter
	admitted   stats.Counter
	// gRecords, when the engine publishes it, tracks len(recs).
	gRecords *sim.Gauge
}

type idxKey struct {
	cluster int64
	block   int64
}

type idxEntry struct {
	key  idxKey
	view blockView
}

func newIndexCache(capacity int64) *indexCache {
	if capacity <= 0 {
		return nil
	}
	return &indexCache{capacity: capacity, ll: list.New(), idx: make(map[idxKey]*list.Element), recs: newRecordList()}
}

// recordCharge is what one record costs the budget: its bytes in a PIDX block.
func recordCharge(klen int) int64 { return int64(pidxRecHdr + klen) }

func (c *indexCache) get(cluster, block int64) (blockView, bool) {
	if c == nil {
		return blockView{}, false
	}
	if el, ok := c.idx[idxKey{cluster, block}]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*idxEntry).view, true
	}
	c.misses.Add(1)
	return blockView{}, false
}

// getRecord looks key up among the records demoted from PIDX block block of
// cluster. A hit counts as a cache hit and makes the record most recent; a
// miss counts nothing, because the caller goes on to the block list. The
// entry's key views the cache and is valid until its next put.
func (c *indexCache) getRecord(cluster, block int64, key []byte) (pidxEntry, bool) {
	if c == nil || c.recs.len() == 0 {
		return pidxEntry{}, false
	}
	i := c.recs.find(idxKey{cluster, block}, key)
	if i < 0 {
		return pidxEntry{}, false
	}
	c.recs.moveToFront(i)
	c.hits.Add(1)
	c.recordHits.Add(1)
	return c.recs.entry(i), true
}

// put caches a parsed block as the most recent one, then evicts down to the
// budget (see indexCache), and returns the view the cache holds for the
// block. A block already resident keeps its view and the one given is
// dropped. A block larger than the whole budget is not kept.
func (c *indexCache) put(cluster, block int64, v blockView) blockView {
	if c == nil {
		return v
	}
	key := idxKey{cluster, block}
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*idxEntry).view
	}
	c.idx[key] = c.ll.PushFront(&idxEntry{key: key, view: v})
	c.used += int64(len(v.buf))
	if c.used <= c.capacity {
		return v
	}
	for c.used > c.capacity && c.ll.Len() > 1 {
		c.demote(c.remove(c.ll.Back()))
	}
	for c.used > c.capacity && c.recs.len() > 0 {
		c.used -= recordCharge(c.recs.remove(c.recs.tail))
	}
	if c.used > c.capacity {
		c.remove(c.ll.Front())
	}
	c.publish()
	return v
}

// free returns the bytes the cache can take without evicting anything.
func (c *indexCache) free() int64 {
	if c == nil {
		return 0
	}
	return c.capacity - c.used
}

// admit caches views[i] as block i of cluster, blocks a build has just
// written, behind every resident block in block order, so the build's last
// block is the first evicted. It takes free budget only: it stops at the
// first block that would overflow the capacity and evicts nothing. A block
// already resident is skipped.
func (c *indexCache) admit(cluster int64, views []blockView) {
	if c == nil {
		return
	}
	for i, v := range views {
		key := idxKey{cluster, int64(i)}
		if _, ok := c.idx[key]; ok {
			continue
		}
		if c.used+int64(len(v.buf)) > c.capacity {
			return
		}
		c.idx[key] = c.ll.PushBack(&idxEntry{key: key, view: v})
		c.used += int64(len(v.buf))
		c.admitted.Add(1)
	}
}

// remove drops a block and returns its entry.
func (c *indexCache) remove(el *list.Element) *idxEntry {
	ent := c.ll.Remove(el).(*idxEntry)
	delete(c.idx, ent.key)
	c.used -= int64(len(ent.view.buf))
	return ent
}

// demote moves the touched records of an evicted PIDX block into the record
// list, most recent first. A record already resident keeps its place and is
// not charged again.
func (c *indexCache) demote(ent *idxEntry) {
	v := pidxBlock{ent.view}
	// Only records kept from an earlier residency can be resident already;
	// the chain grows as this loop adds, so look only when there were some.
	_, resident := c.recs.byBlock[ent.key]
	for w, word := range v.touched {
		for ; word != 0; word &= word - 1 {
			e := v.entry(w<<4 + bits.TrailingZeros16(word))
			if resident && c.recs.find(ent.key, e.key) >= 0 {
				continue
			}
			c.recs.add(ent.key, e)
			c.used += recordCharge(len(e.key))
		}
	}
}

// invalidateCluster drops all cached blocks and records of a released index
// cluster.
func (c *indexCache) invalidateCluster(cluster int64) {
	if c == nil {
		return
	}
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*idxEntry).key.cluster == cluster {
			c.remove(el)
		}
		el = next
	}
	for i := c.recs.head; i >= 0; {
		next := c.recs.slab[i].next
		if c.recs.slab[i].blk.cluster == cluster {
			c.used -= recordCharge(c.recs.remove(i))
		}
		i = next
	}
	c.publish()
}

func (c *indexCache) publish() {
	if c.gRecords != nil {
		c.gRecords.Set(float64(c.recs.len()))
	}
}

// recordList holds demoted PIDX records in one slab, linked into an LRU list
// through slab indices, with their keys in one arena; a block's records are
// also chained to each other from byBlock. Once the slab, arena and map have
// grown to a working set, adding and removing records allocates nothing.
type recordList struct {
	slab       []idxRec
	n          int
	head, tail int32 // most and least recently used; -1 when empty
	free       int32 // first unused slot, chained through next; -1 when none
	byBlock    map[idxKey]int32
	// keys is the arena. A slot keeps its key space while free and reuses it
	// for a key that fits; garbage counts the arena bytes no live record
	// holds, and the arena is rewritten when they reach half of it.
	keys    []byte
	garbage int
}

// idxRec is one demoted record: where its value lives and where its key is.
type idxRec struct {
	blk        idxKey
	vlogOff    uint64
	vlen       uint32
	keyOff     uint32
	klen       uint16
	keyCap     uint16 // the slot's key space, klen or more
	prev, next int32  // LRU neighbours; next also chains free slots
	sib        int32  // the next record of the same block, -1 at the end
}

func newRecordList() recordList {
	return recordList{head: -1, tail: -1, free: -1, byBlock: make(map[idxKey]int32)}
}

func (r *recordList) len() int { return r.n }

func (r *recordList) key(i int32) []byte {
	s := &r.slab[i]
	return r.keys[s.keyOff : s.keyOff+uint32(s.klen)]
}

func (r *recordList) entry(i int32) pidxEntry {
	return pidxEntry{key: r.key(i), vlen: r.slab[i].vlen, vlogOff: r.slab[i].vlogOff}
}

// find returns the slot of blk's record with key, or -1.
func (r *recordList) find(blk idxKey, key []byte) int32 {
	i, ok := r.byBlock[blk]
	if !ok {
		return -1
	}
	for ; i >= 0; i = r.slab[i].sib {
		if bytes.Equal(r.key(i), key) {
			return i
		}
	}
	return -1
}

// add stores a copy of e as the most recent record of blk.
func (r *recordList) add(blk idxKey, e pidxEntry) {
	i := r.free
	if i >= 0 {
		r.free = r.slab[i].next
	} else {
		i = int32(len(r.slab))
		r.slab = append(r.slab, idxRec{})
	}
	s := &r.slab[i]
	s.blk, s.vlogOff, s.vlen = blk, e.vlogOff, e.vlen
	s.klen = uint16(len(e.key))
	if int(s.keyCap) >= len(e.key) {
		r.garbage -= int(s.keyCap)
	} else {
		s.keyOff, s.keyCap = r.reserve(len(e.key)), s.klen
	}
	copy(r.keys[s.keyOff:], e.key)
	s.sib = -1
	if first, ok := r.byBlock[blk]; ok {
		s.sib = first
	}
	r.byBlock[blk] = i
	s.prev, s.next = -1, r.head
	if r.head >= 0 {
		r.slab[r.head].prev = i
	} else {
		r.tail = i
	}
	r.head = i
	r.n++
}

// reserve appends n bytes of key space to the arena and returns their offset.
// The slot asking keeps whatever space it held as garbage.
func (r *recordList) reserve(n int) uint32 {
	if len(r.keys)+n > cap(r.keys) && 2*r.garbage >= len(r.keys) {
		r.compactKeys(n)
	}
	off := len(r.keys)
	r.keys = append(r.keys, make([]byte, n)...)
	return uint32(off)
}

// compactKeys rewrites the arena with only the live records' keys and room
// for extra more bytes; free slots give up their key space.
func (r *recordList) compactKeys(extra int) {
	live := len(r.keys) - r.garbage
	keys := make([]byte, 0, 2*(live+extra))
	for i := r.head; i >= 0; i = r.slab[i].next {
		s := &r.slab[i]
		off := len(keys)
		keys = append(keys, r.keys[s.keyOff:s.keyOff+uint32(s.keyCap)]...)
		s.keyOff = uint32(off)
	}
	for i := r.free; i >= 0; i = r.slab[i].next {
		r.slab[i].keyOff, r.slab[i].keyCap = 0, 0
	}
	r.keys, r.garbage = keys, 0
}

// remove frees slot i and returns its key length.
func (r *recordList) remove(i int32) int {
	s := &r.slab[i]
	if first := r.byBlock[s.blk]; first == i {
		if s.sib >= 0 {
			r.byBlock[s.blk] = s.sib
		} else {
			delete(r.byBlock, s.blk)
		}
	} else {
		j := first
		for r.slab[j].sib != i {
			j = r.slab[j].sib
		}
		r.slab[j].sib = s.sib
	}
	r.unlink(i)
	klen := int(s.klen)
	r.garbage += int(s.keyCap)
	s.next, r.free = r.free, i
	r.n--
	return klen
}

func (r *recordList) unlink(i int32) {
	s := &r.slab[i]
	if s.prev >= 0 {
		r.slab[s.prev].next = s.next
	} else {
		r.head = s.next
	}
	if s.next >= 0 {
		r.slab[s.next].prev = s.prev
	} else {
		r.tail = s.prev
	}
}

func (r *recordList) moveToFront(i int32) {
	if r.head == i {
		return
	}
	r.unlink(i)
	s := &r.slab[i]
	s.prev, s.next = -1, r.head
	r.slab[r.head].prev = i
	r.head = i
}

// readViewCached returns the parsed view of one index block through the
// engine's index cache. A block is parsed (and checksum-verified) when it
// enters the cache; hits return the resident view as is, and so does a miss
// whose block another lookup put while this one read it. Blocks that fail to
// parse are not cached.
func (e *Engine) readViewCached(p *sim.Proc, c *Cluster, blockIdx int64, f recFormat) (blockView, error) {
	if v, ok := e.idxCache.get(c.id, blockIdx); ok {
		return v, nil
	}
	buf := make([]byte, e.cfg.BlockBytes)
	if err := c.ReadAt(p, buf, blockIdx*int64(len(buf))); err != nil {
		return blockView{}, err
	}
	v, err := parseIndexBlock(nil, buf, !e.cfg.DisableVerify, f)
	if err != nil {
		return blockView{}, err
	}
	return e.idxCache.put(c.id, blockIdx, v), nil
}

// admitBuilt hands the index cache the blocks a build kept of cluster c (see
// blockWriter), parsed and verified as a read from media would be, so a
// resident block is the same whichever way it came in. Call it once the
// metadata frame that makes c reachable is on media. A kept block that fails
// to parse, and every one after it, is left out: a lookup reads it from
// media and meets the failure there.
func (e *Engine) admitBuilt(c *Cluster, kept [][]byte, f recFormat) {
	views, _ := parseIndexBlocks(kept, e.cfg.BlockBytes, !e.cfg.DisableVerify, f)
	e.idxCache.admit(c.id, views)
}

// readIndexBlockCached reads a PIDX block through the engine's index cache.
func (e *Engine) readIndexBlockCached(p *sim.Proc, c *Cluster, blockIdx int64) (pidxBlock, error) {
	v, err := e.readViewCached(p, c, blockIdx, pidxFormat)
	return pidxBlock{v}, err
}

// readSidxBlockCached reads an SIDX block through the engine's index cache.
func (e *Engine) readSidxBlockCached(p *sim.Proc, c *Cluster, blockIdx int64) (sidxBlock, error) {
	v, err := e.readViewCached(p, c, blockIdx, sidxFormat)
	return sidxBlock{v}, err
}
