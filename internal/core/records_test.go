package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"kvcsd/internal/sim"
)

// codecs under test implement Codec[T]; each property test round-trips
// random records through Encode/Decode, including split-buffer (partial
// data, atEOF=false) behaviour.

func TestKlogCodecRoundTrip(t *testing.T) {
	c := klogCodec{}
	f := func(key []byte, vlen uint32, off uint64) bool {
		if len(key) > 1<<15 {
			return true
		}
		rec := klogEntry{key: key, vlen: vlen, vlogOff: off}
		buf := c.Encode(nil, rec)
		got, n, err := c.Decode(buf, true)
		if err != nil || n != len(buf) {
			return false
		}
		return bytes.Equal(got.key, key) && got.vlen == vlen && got.vlogOff == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if c.SizeHint(klogEntry{key: make([]byte, 10)}) <= 0 {
		t.Fatal("size hint")
	}
}

func TestKlogCodecPartialData(t *testing.T) {
	c := klogCodec{}
	buf := c.Encode(nil, klogEntry{key: []byte("partial-key"), vlen: 5, vlogOff: 9})
	for cut := 0; cut < len(buf); cut++ {
		if _, n, err := c.Decode(buf[:cut], false); err != nil || n != 0 {
			t.Fatalf("cut %d: n=%d err=%v (want wait-for-more)", cut, n, err)
		}
		if _, _, err := c.Decode(buf[:cut], true); cut > 0 && err == nil {
			t.Fatalf("cut %d at EOF should be corrupt", cut)
		}
	}
}

func TestDestCodecRoundTrip(t *testing.T) {
	c := destCodec{}
	f := func(v, d uint64, l uint32) bool {
		buf := c.Encode(nil, destEntry{vlogOff: v, destOff: d, vlen: l})
		got, n, err := c.Decode(buf, true)
		return err == nil && n == destEntrySize &&
			got.vlogOff == v && got.destOff == d && got.vlen == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, n, err := c.Decode(make([]byte, 5), false); n != 0 || err != nil {
		t.Fatal("partial dest should wait")
	}
	if _, _, err := c.Decode(make([]byte, 5), true); err == nil {
		t.Fatal("short dest at EOF should be corrupt")
	}
	if c.SizeHint(destEntry{}) <= 0 {
		t.Fatal("size hint")
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	c := valueCodec{}
	f := func(off uint64, val []byte) bool {
		if len(val) > 1<<16 {
			return true
		}
		buf := c.Encode(nil, valueRec{destOff: off, value: val})
		got, n, err := c.Decode(buf, true)
		return err == nil && n == len(buf) && got.destOff == off && bytes.Equal(got.value, val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if c.SizeHint(valueRec{value: make([]byte, 7)}) <= 0 {
		t.Fatal("size hint")
	}
}

func TestSidxCodecRoundTrip(t *testing.T) {
	c := sidxCodec{}
	f := func(skey, pkey []byte, off uint64, l uint32) bool {
		if len(skey) > 1<<14 || len(pkey) > 1<<14 {
			return true
		}
		buf := c.Encode(nil, sidxEntry{skey: skey, pkey: pkey, svOff: off, vlen: l})
		got, n, err := c.Decode(buf, true)
		return err == nil && n == len(buf) &&
			bytes.Equal(got.skey, skey) && bytes.Equal(got.pkey, pkey) &&
			got.svOff == off && got.vlen == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if c.SizeHint(sidxEntry{}) <= 0 {
		t.Fatal("size hint")
	}
}

func TestPairCodecRoundTrip(t *testing.T) {
	c := pairCodec{}
	f := func(key, val []byte, seq uint64) bool {
		if len(key) > 1<<14 || len(val) > 1<<15 {
			return true
		}
		buf := c.Encode(nil, pairRec{key: key, value: val, seq: seq})
		got, n, err := c.Decode(buf, true)
		return err == nil && n == len(buf) &&
			bytes.Equal(got.key, key) && bytes.Equal(got.value, val) && got.seq == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// rawView is a cached block of n raw bytes holding recs records; the cache
// looks at nothing else.
func rawView(n, recs int) blockView {
	return blockView{buf: make([]byte, n), offs: make([]uint16, recs)}
}

func TestIndexCacheBasics(t *testing.T) {
	c := newIndexCache(100)
	c.put(1, 0, rawView(40, 1))
	c.put(1, 1, rawView(40, 1))
	if _, ok := c.get(1, 0); !ok {
		t.Fatal("miss on present block")
	}
	c.put(2, 0, rawView(40, 1)) // evicts LRU (1,1)
	if _, ok := c.get(1, 1); ok {
		t.Fatal("LRU block survived eviction")
	}
	if c.used != 80 || c.ll.Len() != 2 {
		t.Fatalf("used %d in %d entries after eviction, want 80 in 2", c.used, c.ll.Len())
	}
	if c.hits.Value() != 1 || c.misses.Value() != 1 {
		t.Fatalf("hits %d misses %d, want 1 and 1", c.hits.Value(), c.misses.Value())
	}
	c.invalidateCluster(1)
	if _, ok := c.get(1, 0); ok {
		t.Fatal("invalidated cluster still cached")
	}
	if _, ok := c.get(2, 0); !ok {
		t.Fatal("unrelated cluster evicted by invalidation")
	}
	if c.used != 40 || c.ll.Len() != 1 || len(c.idx) != 1 {
		t.Fatalf("used %d in %d/%d entries after invalidation, want 40 in 1", c.used, c.ll.Len(), len(c.idx))
	}
}

func TestIndexCacheNilSafe(t *testing.T) {
	var c *indexCache
	if _, ok := c.get(1, 1); ok {
		t.Fatal("nil cache hit")
	}
	c.put(1, 1, blockView{})
	c.invalidateCluster(1)
	if newIndexCache(0) != nil {
		t.Fatal("0-capacity cache should be nil")
	}
}

// testBlockBytes is the size of the PIDX blocks the record tests cache; each
// holds testBlockRecs records of a 10-byte key, charged recCharge apiece.
const (
	testBlockBytes = 256
	testBlockRecs  = 8
	recCharge      = pidxRecHdr + 10
)

// pidxView parses a testBlockBytes PIDX block whose keys are block-specific,
// so records of different blocks never share a key.
func pidxView(t testing.TB, block int) blockView {
	t.Helper()
	recs := make([][]byte, testBlockRecs)
	for i := range recs {
		recs[i] = klogCodec{}.Encode(nil, klogEntry{
			key: []byte(fmt.Sprintf("k%04d-%04d", block, i)), vlen: uint32(i + 1), vlogOff: uint64(block*100 + i),
		})
	}
	v, err := parseIndexBlock(nil, packIndexBlock(testBlockBytes, recs...), true, pidxFormat)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// checkIndexCache verifies the cache's books: used is the sum of what every
// resident block and record is charged and stays within capacity, the block
// list and its map agree, and every record is on the LRU list once and on
// its block's chain.
func checkIndexCache(t *testing.T, c *indexCache) {
	t.Helper()
	var sum int64
	if c.ll.Len() != len(c.idx) {
		t.Fatalf("%d blocks listed, %d mapped", c.ll.Len(), len(c.idx))
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*idxEntry)
		if c.idx[ent.key] != el {
			t.Fatalf("block %v listed but mapped elsewhere", ent.key)
		}
		sum += int64(len(ent.view.buf))
	}
	r := &c.recs
	n, prev := 0, int32(-1)
	for i := r.head; i >= 0; prev, i = i, r.slab[i].next {
		s := r.slab[i]
		if s.prev != prev {
			t.Fatalf("record %d: prev %d, want %d", i, s.prev, prev)
		}
		if r.find(s.blk, r.key(i)) != i {
			t.Fatalf("record %d (%q) not on its block's chain", i, r.key(i))
		}
		sum += recordCharge(int(s.klen))
		n++
	}
	if r.tail != prev || n != r.len() {
		t.Fatalf("LRU walk saw %d records ending at %d; len %d, tail %d", n, prev, r.len(), r.tail)
	}
	chained := 0
	for _, first := range r.byBlock {
		for i := first; i >= 0; i = r.slab[i].sib {
			chained++
		}
	}
	if chained != n {
		t.Fatalf("%d records chained, %d listed", chained, n)
	}
	if c.used != sum || c.used > c.capacity {
		t.Fatalf("used %d, charges sum to %d, capacity %d", c.used, sum, c.capacity)
	}
}

// lookup runs one point lookup the way lookupPidx does — records, then
// blocks, then "media" (the views) — and marks the record found.
func lookup(c *indexCache, views []blockView, cluster int64, block, rec int) (pidxEntry, bool) {
	key := pidxBlock{views[block]}.key(rec)
	if e, ok := c.getRecord(cluster, int64(block), key); ok {
		return e, true
	}
	v, ok := c.get(cluster, int64(block))
	if !ok {
		v = views[block]
		c.put(cluster, int64(block), v)
	}
	v.touch(rec)
	return pidxBlock{v}.entry(rec), false
}

// Blocks go before records: an overflowing put evicts every other block,
// demoting its touched records, and only then evicts records, LRU first;
// the block just read always survives.
func TestIndexCacheEvictsBlocksBeforeRecords(t *testing.T) {
	c := newIndexCache(2*testBlockBytes + 3*recCharge)
	a, b, d := pidxView(t, 0), pidxView(t, 1), pidxView(t, 2)
	c.put(1, 0, a)
	a.touch(1)
	a.touch(5)
	c.put(1, 1, b)
	b.touch(2)
	checkIndexCache(t, c)
	c.put(1, 2, d) // evicts a (LRU), demoting its two records
	checkIndexCache(t, c)
	if _, ok := c.get(1, 0); ok {
		t.Fatal("LRU block survived")
	}
	if _, ok := c.get(1, 1); !ok {
		t.Fatal("a block was evicted although the budget fit it after one eviction")
	}
	for _, i := range []int{5, 1} {
		e, ok := c.getRecord(1, 0, pidxBlock{a}.key(i))
		if want := (pidxBlock{a}).entry(i); !ok || e.vlen != want.vlen || e.vlogOff != want.vlogOff || !bytes.Equal(e.key, want.key) {
			t.Fatalf("record %d of the evicted block: ok=%v %+v, want %+v", i, ok, e, want)
		}
	}
	if _, ok := c.getRecord(1, 0, pidxBlock{a}.key(0)); ok {
		t.Fatal("an untouched record was kept")
	}
	// The MRU order is now d, b; a fourth block leaves room for one block
	// only, so b goes (demoting record 2) and then records do, LRU first:
	// a's records were demoted before b's and record 1 was used last.
	c.capacity = testBlockBytes + 2*recCharge
	c.put(1, 3, pidxView(t, 3))
	checkIndexCache(t, c)
	if c.ll.Len() != 1 || c.ll.Front().Value.(*idxEntry).key != (idxKey{1, 3}) {
		t.Fatal("the block just read did not survive alone")
	}
	if _, ok := c.getRecord(1, 0, pidxBlock{a}.key(5)); ok {
		t.Fatal("the least recently used record survived")
	}
	for _, k := range []struct {
		block int64
		key   []byte
	}{{0, pidxBlock{a}.key(1)}, {1, pidxBlock{b}.key(2)}} {
		if _, ok := c.getRecord(1, k.block, k.key); !ok {
			t.Fatalf("record %q evicted before the LRU one", k.key)
		}
	}
	// A block larger than the whole budget is not kept, and takes the
	// records with it.
	c.put(1, 4, rawView(int(c.capacity)+1, 1))
	checkIndexCache(t, c)
	if c.used != 0 || c.ll.Len() != 0 || c.recs.len() != 0 {
		t.Fatalf("oversized block left used=%d blocks=%d records=%d", c.used, c.ll.Len(), c.recs.len())
	}
}

// A record already resident is neither demoted again nor charged twice when
// its block, read back in and used, is evicted once more.
func TestIndexCacheRecordNotDemotedTwice(t *testing.T) {
	c := newIndexCache(testBlockBytes + 4*recCharge)
	a := pidxView(t, 0)
	c.put(1, 0, a)
	a.touch(3)
	c.put(1, 1, pidxView(t, 1)) // demotes a's record 3
	checkIndexCache(t, c)
	if c.recs.len() != 1 {
		t.Fatalf("%d records after one demotion, want 1", c.recs.len())
	}
	again := pidxView(t, 0) // block 0 read again; its record 3 found in it
	c.put(1, 0, again)
	again.touch(3)
	again.touch(4)
	used := c.used
	c.put(1, 2, pidxView(t, 2)) // demotes block 0 again: only record 4 is new
	checkIndexCache(t, c)
	if c.recs.len() != 2 || c.used != used+recCharge {
		t.Fatalf("records %d used %d after re-demotion, want 2 and %d", c.recs.len(), c.used, used+recCharge)
	}
}

// Every lookup is a hit or a miss exactly once, whichever list answers it,
// and the books balance after every put, over a random walk of lookups,
// re-reads and invalidations.
func TestIndexCacheLookupAccounting(t *testing.T) {
	const blocks = 12
	views := make([][]blockView, 2)
	for cl := range views {
		for b := 0; b < blocks; b++ {
			views[cl] = append(views[cl], pidxView(t, cl*blocks+b))
		}
	}
	c := newIndexCache(3*testBlockBytes + 20*recCharge)
	rng := rand.New(rand.NewSource(32))
	lookups, recordHits := int64(0), int64(0)
	for step := 0; step < 20000; step++ {
		cl := rng.Intn(2)
		if rng.Intn(500) == 0 {
			c.invalidateCluster(int64(cl))
			for b := range views[cl] { // the cluster's blocks come back fresh
				views[cl][b] = pidxView(t, cl*blocks+b)
			}
			checkIndexCache(t, c)
			continue
		}
		// Skewed: a few hot records in every block.
		b, rec := rng.Intn(blocks), rng.Intn(testBlockRecs)
		if rng.Intn(4) != 0 {
			rec = rec % 2
		}
		e, hit := lookup(c, views[cl], int64(cl), b, rec)
		if want := (pidxBlock{views[cl][b]}).entry(rec); e.vlogOff != want.vlogOff || !bytes.Equal(e.key, want.key) {
			t.Fatalf("step %d: lookup of block %d record %d returned %+v, want %+v", step, b, rec, e, want)
		}
		lookups++
		if hit {
			recordHits++
		}
		checkIndexCache(t, c)
	}
	if got := c.hits.Value() + c.misses.Value(); got != lookups {
		t.Fatalf("hits %d + misses %d = %d, want %d lookups", c.hits.Value(), c.misses.Value(), got, lookups)
	}
	if c.recordHits.Value() != recordHits || recordHits == 0 {
		t.Fatalf("record hits %d, want %d (> 0)", c.recordHits.Value(), recordHits)
	}
}

// invalidateCluster drops a released cluster's records with its blocks and
// leaves other clusters' alone.
func TestIndexCacheInvalidateDropsRecords(t *testing.T) {
	c := newIndexCache(testBlockBytes + 8*recCharge)
	for cl := int64(1); cl <= 2; cl++ {
		for b := 0; b < 2; b++ {
			v := pidxView(t, int(cl)*2+b)
			c.put(cl, int64(b), v)
			v.touch(0)
			v.touch(1)
		}
	}
	c.put(3, 0, pidxView(t, 9)) // every touched record is demoted
	checkIndexCache(t, c)
	if c.recs.len() != 8 {
		t.Fatalf("%d records resident, want 8", c.recs.len())
	}
	c.invalidateCluster(1)
	checkIndexCache(t, c)
	for b := 0; b < 2; b++ {
		if _, ok := c.getRecord(1, int64(b), pidxBlock{pidxView(t, 2+b)}.key(0)); ok {
			t.Fatal("record of the invalidated cluster still cached")
		}
		if _, ok := c.getRecord(2, int64(b), pidxBlock{pidxView(t, 4+b)}.key(1)); !ok {
			t.Fatal("record of another cluster dropped")
		}
	}
	if c.recs.len() != 4 || c.used != testBlockBytes+4*recCharge {
		t.Fatalf("records %d used %d after invalidation, want 4 and %d", c.recs.len(), c.used, testBlockBytes+4*recCharge)
	}
}

// A keyspace deleted and recreated under the same name serves its new values
// once compacted, and the cache keeps nothing of the deleted one's index:
// records leave with their PIDX cluster, as its blocks do.
func TestIndexCacheRecreatedKeyspaceServesNewValues(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.IndexCacheBytes = 2 * int64(cfg.BlockBytes) // far below the PIDX: gets demote records
	fx := newEngineFixture(cfg)
	c := fx.eng.idxCache
	const n = 3000
	fx.run(t, func(p *sim.Proc) {
		for round, energy := range []float32{1, 2} {
			if round > 0 {
				if err := fx.eng.DeleteKeyspace(p, "ks"); err != nil {
					t.Fatal(err)
				}
				if c.recs.len() != 0 || c.used != 0 {
					t.Fatalf("after delete: %d records, %d bytes still cached", c.recs.len(), c.used)
				}
			}
			ingestN(t, p, fx, "ks", n, func(int) float32 { return energy })
			compactAndWait(t, p, fx, "ks")
			recordHits := c.recordHits.Value()
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < n; i += 97 {
					v, ok, err := fx.eng.Get(p, "ks", tkey(i))
					if err != nil || !ok || !bytes.Equal(v, tvalue(i, energy)) {
						t.Fatalf("round %d: get %d = %x, %v, %v; want %x", round, i, v, ok, err, tvalue(i, energy))
					}
				}
			}
			if c.recordHits.Value() == recordHits {
				t.Fatalf("round %d: no get was answered from a kept record", round)
			}
			ks, _ := fx.eng.Keyspace("ks")
			for i := c.recs.head; i >= 0; i = c.recs.slab[i].next {
				if cl := c.recs.slab[i].blk.cluster; cl != ks.pidx.id {
					t.Fatalf("round %d: record of cluster %d cached, PIDX is %d", round, cl, ks.pidx.id)
				}
			}
		}
	})
}

// TestIndexCacheAllocs: a get answered from a cached block or from a kept
// record allocates no more than reading its value does, marking a record
// touched allocates nothing, and demoting a block's records allocates
// nothing per record.
func TestIndexCacheAllocs(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.IndexCacheBytes = int64(cfg.BlockBytes) + 1024 // one block and a few records
	fx := newEngineFixture(cfg)
	c := fx.eng.idxCache
	fx.run(t, func(p *sim.Proc) {
		const n = 3000
		ingestN(t, p, fx, "ks", n, func(int) float32 { return 0 })
		compactAndWait(t, p, fx, "ks")
		ks, _ := fx.eng.Keyspace("ks")
		val := make([]byte, 32)
		read := testing.AllocsPerRun(20, func() {
			val = make([]byte, 32)
			if err := ks.sorted.ReadAt(p, val, 0); err != nil {
				t.Fatal(err)
			}
		})
		key := tkey(0)
		get := func() {
			if _, ok, err := fx.eng.Get(p, "ks", key); err != nil || !ok {
				t.Fatalf("get: %v %v", ok, err)
			}
		}
		get() // reads key 0's block and marks its record
		blockHit := testing.AllocsPerRun(20, get)
		if _, ok, err := fx.eng.Get(p, "ks", tkey(n-1)); err != nil || !ok { // evicts key 0's block
			t.Fatalf("get: %v %v", ok, err)
		}
		before := c.recordHits.Value()
		recordHit := testing.AllocsPerRun(20, get)
		if got := c.recordHits.Value() - before; got != 21 {
			t.Fatalf("%d of 21 gets answered from the kept record", got)
		}
		if blockHit > read || recordHit > read {
			t.Fatalf("a get allocated %v times on a block hit, %v on a record hit; reading its value %v", blockHit, recordHit, read)
		}
	})

	v := pidxView(t, 0)
	if got := testing.AllocsPerRun(100, func() { v.touch(3) }); got != 0 {
		t.Fatalf("marking a record touched allocated %v times", got)
	}

	// Two blocks take turns in a cache that holds one of them and the
	// other's records: every put demotes a whole block and evicts the
	// records of the one before. Compared with the same puts of untouched
	// blocks, the demotions may not allocate at all.
	cycle := func(touched bool) float64 {
		c := newIndexCache(testBlockBytes + testBlockRecs*recCharge)
		a, b := pidxView(t, 0), pidxView(t, 1)
		for i := 0; touched && i < testBlockRecs; i++ {
			a.touch(i)
			b.touch(i)
		}
		allocs := testing.AllocsPerRun(50, func() {
			c.put(1, 0, a)
			c.put(1, 1, b)
		})
		want := 0
		if touched {
			want = testBlockRecs
		}
		if c.recs.len() != want {
			t.Fatalf("touched=%v: %d records resident, want %d", touched, c.recs.len(), want)
		}
		return allocs
	}
	if plain, demoting := cycle(false), cycle(true); demoting > plain {
		t.Fatalf("two puts allocated %v times demoting %d records each, %v without", demoting, testBlockRecs, plain)
	}
}

func TestConfigSanitizeAllDefaults(t *testing.T) {
	c := Config{}.sanitize()
	d := DefaultConfig()
	if c.IngestBufferBytes != d.IngestBufferBytes || c.BlockBytes != d.BlockBytes ||
		c.StripeWidth != d.StripeWidth || c.SortBudgetBytes != d.SortBudgetBytes ||
		c.MergeFanin != d.MergeFanin || c.DRAMBytes != d.DRAMBytes ||
		c.IndexCacheBytes != d.IndexCacheBytes ||
		c.MaxKeyLen != d.MaxKeyLen || c.MaxValueLen != d.MaxValueLen {
		t.Fatalf("sanitize mismatch: %+v", c)
	}
	// Negative index cache disables it.
	nc := Config{IndexCacheBytes: -1}.sanitize()
	if nc.IndexCacheBytes != 0 {
		t.Fatal("negative index cache should disable")
	}
}

func TestEngineAccessors(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	if fx.eng.Config().BlockBytes != 4096 {
		t.Fatal("Config accessor")
	}
	if fx.eng.Manager() == nil || fx.eng.DRAMGauge() == nil {
		t.Fatal("accessors nil")
	}
	if fx.eng.BackgroundJobs() != 0 {
		t.Fatal("jobs at rest")
	}
	fx.env.Run()
}
