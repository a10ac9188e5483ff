package core

import (
	"bytes"
	"fmt"
	"testing"

	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// cacheState is what a test compares of an index cache before and after an
// operation that must leave it alone.
type cacheState struct {
	blocks               []idxKey
	records              int
	used                 int64
	hits, misses, admits int64
}

func snapshotCache(c *indexCache) cacheState {
	s := cacheState{records: c.recs.len(), used: c.used, hits: c.hits.Value(), misses: c.misses.Value(), admits: c.admitted.Value()}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		s.blocks = append(s.blocks, el.Value.(*idxEntry).key)
	}
	return s
}

func (s cacheState) String() string {
	return fmt.Sprintf("blocks %v records %d used %d hits %d misses %d admitted %d",
		s.blocks, s.records, s.used, s.hits, s.misses, s.admits)
}

// residentOf counts the blocks of cluster the cache holds.
func residentOf(c *indexCache, cluster int64) int {
	n := 0
	for k := range c.idx {
		if k.cluster == cluster {
			n++
		}
	}
	return n
}

// A put over a resident block keeps the resident view, its touched records
// included, returns it and drops the duplicate: two lookups that missed the
// same block both put it.
func TestIndexCachePutKeepsResident(t *testing.T) {
	c := newIndexCache(3 * testBlockBytes)
	first := pidxView(t, 0)
	c.put(1, 0, first)
	c.put(1, 1, pidxView(t, 1))
	first.touch(2)
	dup := pidxView(t, 0)
	got := c.put(1, 0, dup)
	checkIndexCache(t, c)
	if &got.offs[0] != &first.offs[0] {
		t.Fatal("put returned the duplicate, not the resident view")
	}
	if c.used != 2*testBlockBytes || c.ll.Len() != 2 {
		t.Fatalf("used %d in %d blocks after a duplicate put, want %d in 2", c.used, c.ll.Len(), 2*testBlockBytes)
	}
	if c.ll.Front().Value.(*idxEntry).key != (idxKey{1, 0}) {
		t.Fatal("the block put again is not the most recent")
	}
	if v, _ := c.get(1, 0); v.touched[0] != 1<<2 {
		t.Fatalf("touched bits %b after a duplicate put, want %b", v.touched[0], 1<<2)
	}
}

// Two gets that miss the same PIDX block read it concurrently; both records
// they find must outlive the block in the cache, which a put that replaced
// the resident view would break by dropping the first get's touched bit.
func TestConcurrentMissesKeepBothRecords(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.IndexCacheBytes = int64(cfg.BlockBytes) + 1024 // one block and a few records
	fx := newEngineFixture(cfg)
	c := fx.eng.idxCache
	const n = 3000
	get := func(p *sim.Proc, i int) {
		if v, ok, err := fx.eng.Get(p, "ks", tkey(i)); err != nil || !ok || !bytes.Equal(v, tvalue(i, 0)) {
			t.Errorf("get %d = %x, %v, %v", i, v, ok, err)
		}
	}
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", n, func(int) float32 { return 0 })
		compactAndWait(t, p, fx, "ks")
		ks, _ := fx.eng.Keyspace("ks")
		c.invalidateCluster(ks.pidx.id) // start cold: both gets must miss
		misses := c.misses.Value()
		done, left := sim.NewEvent(fx.env), 2
		for _, i := range []int{0, 1} {
			fx.env.Go(fmt.Sprintf("get-%d", i), func(gp *sim.Proc) {
				get(gp, i)
				if left--; left == 0 {
					done.Signal()
				}
			})
		}
		p.Wait(done)
		if got := c.misses.Value() - misses; got != 2 {
			t.Fatalf("%d of the two concurrent gets missed, want both", got)
		}
		get(p, n-1) // evicts keys 0 and 1's block, demoting what was found in it
		recordHits := c.recordHits.Value()
		get(p, 0)
		get(p, 1)
		if got := c.recordHits.Value() - recordHits; got != 2 {
			t.Fatalf("%d of the two records survived their block, want both", got)
		}
	})
}

// The first get after compaction reads its value granule and nothing else:
// the PIDX block was admitted when the compaction installed, in either
// layout. When the cache is already full it admits nothing and the get reads
// the block as well.
func TestFirstGetAfterCompactionReadsOneGranule(t *testing.T) {
	for _, tc := range []struct{ full, combined bool }{{false, false}, {true, false}, {false, true}} {
		t.Run(fmt.Sprintf("full=%v,combined=%v", tc.full, tc.combined), func(t *testing.T) {
			cfg := smallEngineConfig()
			cfg.DisableKVSeparation = tc.combined
			if tc.full {
				cfg.IndexCacheBytes = 2 * int64(cfg.BlockBytes)
			}
			fx := newEngineFixture(cfg)
			c := fx.eng.idxCache
			const n = 3000
			fx.run(t, func(p *sim.Proc) {
				if tc.full { // another keyspace's blocks take the whole budget
					ingestN(t, p, fx, "other", n, func(int) float32 { return 0 })
					compactAndWait(t, p, fx, "other")
					if c.free() != 0 {
						t.Fatalf("%d bytes free after the first compaction, want 0", c.free())
					}
				}
				before := snapshotCache(c)
				ingestN(t, p, fx, "ks", n, func(int) float32 { return 1 })
				compactAndWait(t, p, fx, "ks")
				ks, _ := fx.eng.Keyspace("ks")
				blocks := int(ks.pidx.Len() / int64(cfg.BlockBytes))
				if tc.full {
					if after := snapshotCache(c); after.String() != before.String() {
						t.Fatalf("compaction into a full cache changed it:\n%v\n%v", before, after)
					}
				} else if residentOf(c, ks.pidx.id) != blocks || c.admitted.Value() != int64(blocks) {
					t.Fatalf("%d of %d PIDX blocks resident, %d admitted", residentOf(c, ks.pidx.id), blocks, c.admitted.Value())
				}
				read := fx.st.MediaRead.Value()
				i := n / 2
				if v, ok, err := fx.eng.Get(p, "ks", tkey(i)); err != nil || !ok || !bytes.Equal(v, tvalue(i, 1)) {
					t.Fatalf("get = %x, %v, %v", v, ok, err)
				}
				want := int64(cfg.BlockBytes) // the value's granule
				if tc.full {
					want *= 2 // and the PIDX block
				}
				if got := fx.st.MediaRead.Value() - read; got != want {
					t.Fatalf("first get read %d bytes from media, want %d", got, want)
				}
			})
		})
	}
}

// The first secondary query after an index build reads no SIDX block from
// media, whether the index was built on its own or extracted in flight.
func TestFirstSecondaryQueryAfterIndexBuild(t *testing.T) {
	spec := nvme.SecondaryIndexSpec{Name: "energy", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
	for _, consolidated := range []bool{false, true} {
		t.Run(fmt.Sprintf("consolidated=%v", consolidated), func(t *testing.T) {
			fx := newEngineFixture(smallEngineConfig())
			c := fx.eng.idxCache
			const n = 3000
			fx.run(t, func(p *sim.Proc) {
				ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i) })
				if consolidated {
					if err := fx.eng.CompactWithIndexes(p, "ks", []nvme.SecondaryIndexSpec{spec}); err != nil {
						t.Fatal(err)
					}
				} else {
					compactAndWait(t, p, fx, "ks")
					if err := fx.eng.BuildSecondaryIndex(p, "ks", spec); err != nil {
						t.Fatal(err)
					}
				}
				if err := fx.eng.WaitIndexBuilt(p, "ks", "energy"); err != nil {
					t.Fatal(err)
				}
				ks, _ := fx.eng.Keyspace("ks")
				si := ks.secondary["energy"]
				if blocks := int(si.cluster.Len() / int64(fx.eng.cfg.BlockBytes)); blocks < 2 || residentOf(c, si.cluster.id) != blocks {
					t.Fatalf("%d of %d SIDX blocks resident", residentOf(c, si.cluster.id), blocks)
				}
				misses := c.misses.Value()
				count, err := fx.eng.RangeSecondary(p, "ks", "energy", keyenc.PutFloat32(1000), keyenc.PutFloat32(1100), 0, func(nvme.KVPair) bool { return true })
				if err != nil || count != 100 {
					t.Fatalf("secondary query matched %d, %v; want 100", count, err)
				}
				if got := c.misses.Value() - misses; got != 0 {
					t.Fatalf("the first secondary query read %d index blocks from media", got)
				}
			})
		})
	}
}

// Admission into a full cache changes nothing: not the resident blocks or
// their order, not the records, not the counters.
func TestIndexAdmitFullCacheChangesNothing(t *testing.T) {
	c := newIndexCache(2*testBlockBytes + 2*recCharge)
	a := pidxView(t, 0)
	c.put(1, 0, a)
	a.touch(1)
	c.put(1, 1, pidxView(t, 1))
	c.put(1, 2, pidxView(t, 2)) // demotes a's record 1
	c.get(1, 1)
	before := snapshotCache(c)
	if before.records != 1 || c.free() >= testBlockBytes {
		t.Fatalf("setup: %v, %d free", before, c.free())
	}
	c.admit(2, []blockView{pidxView(t, 3), pidxView(t, 4)})
	checkIndexCache(t, c)
	if after := snapshotCache(c); after.String() != before.String() {
		t.Fatalf("admission into a full cache changed it:\n%v\n%v", before, after)
	}
}

// Admitted blocks go in behind every block read in, in block order, so a
// put that overflows evicts them, the build's last block first, before any
// block a lookup read. Admission stops at the first block that does not fit
// and skips a block already resident.
func TestIndexAdmitEvictedFirst(t *testing.T) {
	c := newIndexCache(5 * testBlockBytes)
	c.put(1, 0, pidxView(t, 0))
	c.put(1, 1, pidxView(t, 1))
	resident := pidxView(t, 3)
	c.put(2, 1, resident) // a lookup read block 1 of the built cluster first
	c.admit(2, []blockView{pidxView(t, 2), pidxView(t, 4), pidxView(t, 5), pidxView(t, 6)})
	checkIndexCache(t, c)
	// Block 1 was skipped, block 0 and 2 went in, block 3 did not fit.
	want := []idxKey{{2, 1}, {1, 1}, {1, 0}, {2, 0}, {2, 2}}
	if got := snapshotCache(c).blocks; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("LRU order %v, want %v", got, want)
	}
	if v, _ := c.get(2, 1); &v.offs[0] != &resident.offs[0] {
		t.Fatal("admission replaced a resident block")
	}
	if c.admitted.Value() != 2 {
		t.Fatalf("%d blocks admitted, want 2", c.admitted.Value())
	}
	for i, gone := range []idxKey{{2, 2}, {2, 0}} {
		c.put(3, int64(i), pidxView(t, 7+i))
		checkIndexCache(t, c)
		if _, ok := c.idx[gone]; ok {
			t.Fatalf("put %d evicted something other than admitted block %v", i, gone)
		}
		if c.ll.Len() != 5 {
			t.Fatalf("put %d left %d blocks, want 5", i, c.ll.Len())
		}
	}
	c.put(3, 2, pidxView(t, 9)) // only blocks read in are left: the LRU one goes
	if _, ok := c.idx[idxKey{1, 0}]; ok {
		t.Fatal("the least recently read block survived")
	}
}

// A build whose persist fails admits nothing: not a compaction's PIDX
// blocks, not a separate or consolidated index build's SIDX blocks.
func TestIndexAdmitFailedPersist(t *testing.T) {
	spec := nvme.SecondaryIndexSpec{Name: "energy", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
	for _, build := range []string{"compaction", "index", "consolidated"} {
		t.Run(build, func(t *testing.T) {
			fx := newEngineFixture(smallEngineConfig())
			c := fx.eng.idxCache
			m := fx.eng.mgr
			fx.run(t, func(p *sim.Proc) {
				ingestN(t, p, fx, "ks", 3000, func(i int) float32 { return float32(i) })
				if build == "index" {
					compactAndWait(t, p, fx, "ks")
				}
				ks, _ := fx.eng.Keyspace("ks")
				// Fail the persist that makes the built cluster reachable.
				built := func() *Cluster {
					if build == "compaction" {
						if ks.state != StateCompacted {
							return nil
						}
						return ks.pidx
					}
					if si := ks.secondary["energy"]; si != nil {
						return si.cluster
					}
					return nil
				}
				m.persistHook = func(*sim.Proc) {
					if built() != nil {
						fx.dev.InjectFault("zone-write", int64(m.activeMeta), 1)
						m.persistHook = nil
					}
				}
				admitted := c.admitted.Value()
				var err error
				switch build {
				case "compaction":
					if err = fx.eng.Compact(p, "ks"); err == nil {
						err = fx.eng.WaitCompacted(p, "ks")
					}
				case "index":
					if err = fx.eng.BuildSecondaryIndex(p, "ks", spec); err == nil {
						err = fx.eng.WaitIndexBuilt(p, "ks", "energy")
					}
				case "consolidated":
					if err = fx.eng.CompactWithIndexes(p, "ks", []nvme.SecondaryIndexSpec{spec}); err == nil {
						err = fx.eng.WaitIndexBuilt(p, "ks", "energy")
					}
				}
				if err == nil {
					t.Fatal("the build succeeded despite its failed persist")
				}
				if m.persistHook != nil {
					t.Fatal("the fault was never armed")
				}
				var want int64 // the consolidated build's compaction persisted
				if build == "consolidated" {
					want = int64(residentOf(c, ks.pidx.id))
				}
				if got := c.admitted.Value() - admitted; got != want {
					t.Fatalf("%d blocks admitted, want %d", got, want)
				}
				if n := residentOf(c, built().id); n != 0 {
					t.Fatalf("%d blocks of the unpersisted cluster resident", n)
				}
			})
		})
	}
}

// Deleting a keyspace drops every block its builds admitted, PIDX and SIDX.
func TestDeleteKeyspaceDropsAdmittedBlocks(t *testing.T) {
	spec := nvme.SecondaryIndexSpec{Name: "energy", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
	fx := newEngineFixture(smallEngineConfig())
	c := fx.eng.idxCache
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 3000, func(i int) float32 { return float32(i) })
		if err := fx.eng.CompactWithIndexes(p, "ks", []nvme.SecondaryIndexSpec{spec}); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.WaitIndexBuilt(p, "ks", "energy"); err != nil {
			t.Fatal(err)
		}
		ks, _ := fx.eng.Keyspace("ks")
		if residentOf(c, ks.pidx.id) == 0 || residentOf(c, ks.secondary["energy"].cluster.id) == 0 {
			t.Fatalf("setup: %d PIDX and %d SIDX blocks admitted", residentOf(c, ks.pidx.id), residentOf(c, ks.secondary["energy"].cluster.id))
		}
		if err := fx.eng.DeleteKeyspace(p, "ks"); err != nil {
			t.Fatal(err)
		}
		checkIndexCache(t, c)
		if c.ll.Len() != 0 || c.used != 0 {
			t.Fatalf("after delete: %d blocks, %d bytes still cached", c.ll.Len(), c.used)
		}
	})
}

// TestIndexAdmitAllocs: admitting a build's kept blocks allocates one offset
// table and one view list for the whole batch, a list element and an entry
// per block, and nothing per record.
func TestIndexAdmitAllocs(t *testing.T) {
	const blocks = 16
	admit := func(recs int) float64 {
		kept := make([][]byte, blocks)
		for b := range kept {
			rs := make([][]byte, recs)
			for i := range rs {
				rs[i] = klogCodec{}.Encode(nil, klogEntry{key: []byte(fmt.Sprintf("k%04d-%04d", b, i)), vlen: 1, vlogOff: uint64(i)})
			}
			kept[b] = packIndexBlock(4096, rs...)
		}
		e := &Engine{cfg: DefaultConfig(), idxCache: newIndexCache(blocks * 4096)}
		cl := &Cluster{id: 1}
		allocs := testing.AllocsPerRun(20, func() {
			e.admitBuilt(cl, kept, pidxFormat)
			if e.idxCache.ll.Len() != blocks {
				t.Fatalf("%d of %d blocks admitted", e.idxCache.ll.Len(), blocks)
			}
			e.idxCache.invalidateCluster(1)
		})
		return allocs
	}
	few, many := admit(2), admit(150)
	if many != few {
		t.Fatalf("admitting %d blocks allocated %v times with 2 records each, %v with 150", blocks, few, many)
	}
	if few > 2*blocks+2 {
		t.Fatalf("admitting %d blocks allocated %v times, want at most %d", blocks, few, 2*blocks+2)
	}
}
