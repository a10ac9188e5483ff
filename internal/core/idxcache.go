package core

import (
	"container/list"

	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// indexCache is a small SoC-DRAM LRU over PIDX/SIDX index blocks. KV-CSD
// does not cache application data (paper §VI-B), but keeping recently used
// *index* blocks in device memory mirrors what the software baseline gets
// from pinning SSTable index blocks, and keeps a point query at one media
// read for the value.
type indexCache struct {
	capacity int64
	used     int64
	ll       *list.List
	idx      map[idxKey]*list.Element
	// hits and misses are read by the telemetry endpoint while the
	// simulation runs; everything else belongs to the sim goroutine.
	hits   stats.Counter
	misses stats.Counter
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
	return &indexCache{capacity: capacity, ll: list.New(), idx: make(map[idxKey]*list.Element)}
}

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

// put caches a parsed block. The capacity budget counts raw block bytes only,
// as it did when the cache held unparsed buffers.
func (c *indexCache) put(cluster, block int64, v blockView) {
	if c == nil {
		return
	}
	key := idxKey{cluster, block}
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*idxEntry)
		c.used += int64(len(v.buf)) - int64(len(ent.view.buf))
		ent.view = v
	} else {
		c.idx[key] = c.ll.PushFront(&idxEntry{key: key, view: v})
		c.used += int64(len(v.buf))
	}
	for c.used > c.capacity && c.ll.Len() > 0 {
		c.remove(c.ll.Back())
	}
}

func (c *indexCache) remove(el *list.Element) {
	ent := c.ll.Remove(el).(*idxEntry)
	delete(c.idx, ent.key)
	c.used -= int64(len(ent.view.buf))
}

// invalidateCluster drops all cached blocks of a released index cluster.
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
}

// readViewCached returns the parsed view of one index block through the
// engine's index cache. A block is parsed (and checksum-verified) when it
// enters the cache; hits return the resident view as is. Blocks that fail to
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
	e.idxCache.put(c.id, blockIdx, v)
	return v, nil
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
