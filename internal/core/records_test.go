package core

import (
	"bytes"
	"testing"
	"testing/quick"
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

// A put over a resident key must swap in the new parse and re-account its
// size: keeping the old view would serve stale records, and keeping the old
// size lets the cache drift past (or starve below) its budget.
func TestIndexCacheReplace(t *testing.T) {
	c := newIndexCache(100)
	c.put(1, 0, rawView(40, 1))
	c.put(1, 1, rawView(40, 2))
	c.put(1, 0, rawView(20, 3)) // smaller replacement, becomes MRU
	if c.used != 60 || c.ll.Len() != 2 {
		t.Fatalf("used %d in %d entries after shrinking replace, want 60 in 2", c.used, c.ll.Len())
	}
	if v, ok := c.get(1, 0); !ok || len(v.buf) != 20 || v.len() != 3 {
		t.Fatalf("replace kept the stale view: %d bytes, %d records", len(v.buf), v.len())
	}
	c.put(1, 0, rawView(70, 4)) // growing replacement overflows: (1,1) is LRU
	if _, ok := c.get(1, 1); ok {
		t.Fatal("growing replace did not evict the LRU block")
	}
	if v, ok := c.get(1, 0); !ok || v.len() != 4 || c.used != 70 {
		t.Fatalf("after growing replace: ok=%v records=%d used=%d, want true 4 70", ok, v.len(), c.used)
	}
	c.put(1, 0, rawView(101, 5)) // larger than the whole budget: not retained
	if c.used != 0 || c.ll.Len() != 0 || len(c.idx) != 0 {
		t.Fatalf("oversized block left used=%d entries=%d/%d", c.used, c.ll.Len(), len(c.idx))
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
