package core

import (
	"bytes"
	"slices"
	"testing"

	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// withPoison runs fn with poisonReleased on, as every race-detector build has
// it, and restores the build's setting afterwards.
func withPoison(fn func()) {
	defer func(was bool) { poisonReleased = was }(poisonReleased)
	poisonReleased = true
	fn()
}

// isPoison reports whether every byte of b is poisonByte (false when empty).
func isPoison(b []byte) bool {
	return len(b) > 0 && bytes.Count(b, []byte{poisonByte}) == len(b)
}

// scribbleSource streams recs the way a device source does at its worst: each
// record is encoded into one buffer the source reuses and handed out as a
// decoded view of it, and the buffer is overwritten with garbage at the next
// call. A consumer that keeps a view instead of a copy reads the garbage.
type scribbleSource[T any] struct {
	codec Codec[T]
	recs  []T
	buf   []byte
}

func (s *scribbleSource[T]) next(*sim.Proc) (rec T, ok bool, err error) {
	for i := range s.buf {
		s.buf[i] = byte(0x5A + i)
	}
	if len(s.recs) == 0 {
		return rec, false, nil
	}
	s.buf = s.codec.Encode(s.buf[:0], s.recs[0])
	s.recs = s.recs[1:]
	rec, _, err = s.codec.Decode(s.buf, true)
	return rec, err == nil, err
}

// checkSortOwnsRecords sorts recs from a scribbling source, once through
// several runs and a merge and once in a single DRAM batch, and wants exactly
// the order stableSort gives the records themselves.
func checkSortOwnsRecords[T any](t *testing.T, codec Codec[T], key func(T) []byte, cmp func(a, b T) int, recs []T) {
	t.Helper()
	want := slices.Clone(recs)
	stableSort(want, make([]T, len(want)), cmp)
	for _, budget := range []int{16 << 10, 64 << 20} {
		fx := newSortFixture(budget)
		fx.run(t, func(p *sim.Proc) {
			s := NewSorter(fx.zm, fx.soc, fx.cfg, codec, key, cmp)
			i := 0
			err := s.Stream(p, &scribbleSource[T]{codec: codec, recs: recs}, func(_ *sim.Proc, rec T) error {
				if got, exp := codec.Encode(nil, rec), codec.Encode(nil, want[i]); !bytes.Equal(got, exp) {
					t.Fatalf("budget %d, record %d: got %x, want %x", budget, i, got, exp)
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != len(want) {
				t.Fatalf("budget %d: %d records out, want %d", budget, i, len(want))
			}
			if multi := budget < 1<<20; multi != (s.runs >= 2) {
				t.Fatalf("budget %d: %d runs", budget, s.runs)
			}
		})
	}
}

// TestSortOwnsSourceRecords: run formation copies every record it keeps, so
// a source that scribbles over the record it handed out at its next call
// cannot change what the sort produces.
func TestSortOwnsSourceRecords(t *testing.T) {
	checkSortOwnsRecords(t, klogCodec{}, klogKey, compareKlog, benchKlogEntries(3000))
	checkSortOwnsRecords(t, sidxCodec{}, sidxKey, compareSidx, benchSidxEntries(3000))
}

// TestSourcesPoisonTakenRecords: with poisoning on, each device source that
// owns its buffer overwrites the bytes of the record it handed out last when
// asked for the next one.
func TestSourcesPoisonTakenRecords(t *testing.T) {
	withPoison(func() {
		fx := newEngineFixture(smallEngineConfig())
		spec := nvme.SecondaryIndexSpec{Name: "energy", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
		fx.run(t, func(p *sim.Proc) {
			ingestN(t, p, fx, "ks", 600, func(i int) float32 { return float32(i) })
			if err := fx.eng.Sync(p, "ks"); err != nil {
				t.Fatal(err)
			}
			ks, _ := fx.eng.Keyspace("ks")

			frames := newFrameSource(ks.klog, klogCodec{}, ks.logFrames, pipeline{})
			first, _, _ := frames.next(p)
			if _, _, err := frames.next(p); err != nil || !isPoison(first.key) {
				t.Errorf("frameSource left the taken key %q (err %v)", first.key, err)
			}

			win := &clusterWindow{c: ks.vlog}
			a, _ := win.read(p, 0, 32)
			if _, err := win.read(p, 32, 32); err != nil || !isPoison(a) {
				t.Errorf("clusterWindow left the taken span %q (err %v)", a, err)
			}

			run := fx.eng.zm.NewCluster(ZoneTemp)
			var enc []byte
			for i := 0; i < 3; i++ {
				enc = klogCodec{}.Encode(enc, klogEntry{key: tkey(i), vlen: 32, vlogOff: uint64(i) * 32})
			}
			if err := run.Append(p, enc); err != nil {
				t.Fatal(err)
			}
			if err := run.Seal(p); err != nil {
				t.Fatal(err)
			}
			sc := &scanner[klogEntry]{c: run, codec: klogCodec{}}
			r1, _, _ := sc.next(p)
			if _, _, err := sc.next(p); err != nil || !isPoison(r1.key) {
				t.Errorf("scanner left the taken key %q (err %v)", r1.key, err)
			}

			compactAndWait(t, p, fx, "ks")
			// The secondary key's buffer is poisoned and then refilled with
			// the next entry's key; the primary key's bytes stay poisoned.
			src := fx.eng.newSidxSource(ks, spec, fx.eng.pipeline(ks))
			defer src.stop(p)
			e1, _, _ := src.next(p)
			skey := bytes.Clone(e1.skey)
			if _, _, err := src.next(p); err != nil || bytes.Equal(e1.skey, skey) || !isPoison(e1.pkey) {
				t.Errorf("sidxSource left the taken entry %q/%q (err %v)", e1.skey, e1.pkey, err)
			}
		})
	})
}

// TestIngestAllocs: a bulk command stages its pairs with one allocation — the
// slab they are copied into — once the keyspace's buffer slice has grown and
// the key bounds are set. (The buffer is large enough that nothing flushes.)
func TestIngestAllocs(t *testing.T) {
	const perCmd, runs = 2570, 10
	cfg := smallEngineConfig()
	cfg.IngestBufferBytes = 64 << 20
	fx := newEngineFixture(cfg)
	ops := func(lo, n int) []nvme.KVPair {
		out := make([]nvme.KVPair, n)
		for i := range out {
			out[i] = nvme.KVPair{Key: tkey(lo + i), Value: tvalue(lo+i, 1)}
		}
		return out
	}
	warm, cmd := ops(0, perCmd*(runs+1)), ops(1, perCmd)
	fx.run(t, func(p *sim.Proc) {
		if err := fx.eng.CreateKeyspace(p, "ks"); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.BulkOps(p, "ks", warm); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.Sync(p, "ks"); err != nil {
			t.Fatal(err)
		}
		var err error
		n := testing.AllocsPerRun(runs, func() { err = fx.eng.BulkOps(p, "ks", cmd) })
		if err != nil {
			t.Fatal(err)
		}
		if n > 2 {
			t.Fatalf("BulkOps of %d pairs allocated %v times, want at most 2", perCmd, n)
		}
	})
}

// TestIngestBufferHoldsNoStalePairs: after a flush, no slot of the
// keyspace's ingest buffer beyond its length still points at a pair (which
// would pin that pair's command slab), and a keyspace compaction took holds
// no ingest state at all.
func TestIngestBufferHoldsNoStalePairs(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 1000, func(i int) float32 { return 1 })
		ks, _ := fx.eng.Keyspace("ks")
		stale := func() int {
			n := 0
			for _, pr := range ks.buf[len(ks.buf):cap(ks.buf)] {
				if pr.key != nil || pr.value != nil {
					n++
				}
			}
			return n
		}
		if len(ks.buf) == 0 || cap(ks.buf) == len(ks.buf) {
			t.Fatalf("buffer %d/%d: the fixture should stop between flushes", len(ks.buf), cap(ks.buf))
		}
		if n := stale(); n != 0 {
			t.Fatalf("%d stale slots after an ingest flush", n)
		}
		if err := fx.eng.Sync(p, "ks"); err != nil {
			t.Fatal(err)
		}
		if n := stale(); len(ks.buf) != 0 || ks.bufBytes != 0 || n != 0 {
			t.Fatalf("after Sync: %d pairs, %d bytes, %d stale slots", len(ks.buf), ks.bufBytes, n)
		}
		compactAndWait(t, p, fx, "ks")
		if ks.buf != nil || ks.bufBytes != 0 {
			t.Fatalf("compacted keyspace holds an ingest buffer of %d/%d pairs", len(ks.buf), cap(ks.buf))
		}
	})
}

// TestMakeRunsAllocs: run formation over a KLOG's frames allocates per frame
// read, arena chunk, zone and growth of the batch slice — never per record:
// four times the records cost a few dozen allocations more, where a copying
// decoder cost one per record.
func TestMakeRunsAllocs(t *testing.T) {
	const n = 10240
	allocs := func(records int) float64 {
		fx := newEngineFixture(DefaultConfig())
		var got float64
		fx.run(t, func(p *sim.Proc) {
			ingestN(t, p, fx, "ks", records, func(i int) float32 { return 1 })
			if err := fx.eng.Sync(p, "ks"); err != nil {
				t.Fatal(err)
			}
			ks, _ := fx.eng.Keyspace("ks")
			s := NewSorter(fx.eng.zm, fx.eng.soc, fx.eng.cfg, klogCodec{}, klogKey, compareKlog)
			got = testing.AllocsPerRun(1, func() {
				runs, err := s.makeRuns(p, newFrameSource(ks.klog, klogCodec{}, ks.logFrames, pipeline{}))
				if err != nil || len(runs) != 1 {
					t.Fatalf("%d runs, err %v", len(runs), err)
				}
				if err := releaseAll(p, runs); err != nil {
					t.Fatal(err)
				}
			})
		})
		return got
	}
	one, four := allocs(n), allocs(4*n)
	if one > 100 || (four-one)/(3*n) > 0.01 {
		t.Fatalf("makeRuns allocated %v times for %d records and %v for %d", one, n, four, 4*n)
	}
}

// TestRunFormationSharesAllocs: a batch sort split over three SoC cores
// allocates per batch — the helper procs of its shares — never per record: a
// spilled sort of many batches costs at most a few dozen allocations per
// batch more on a 4-core SoC than on a 1-core one.
func TestRunFormationSharesAllocs(t *testing.T) {
	recs := benchKlogEntries(8192)
	allocs := func(cores int) (got float64, batches int) {
		fx := newSortFixture(16 << 10).onCores(cores)
		fx.run(t, func(p *sim.Proc) {
			s := NewSorter(fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
			got = testing.AllocsPerRun(1, func() {
				runs, err := s.makeRuns(p, &sliceSource[klogEntry]{recs: recs})
				if err != nil {
					t.Fatal(err)
				}
				batches = len(runs)
				if err := releaseAll(p, runs); err != nil {
					t.Fatal(err)
				}
			})
		})
		return got, batches
	}
	one, batches := allocs(1)
	four, _ := allocs(4)
	t.Logf("%d batches: %v allocations on 4 cores, %v on 1", batches, four, one)
	if batches < 10 || (four-one)/float64(batches) > 32 {
		t.Fatalf("%d batches allocated %v times on 4 cores, %v on 1", batches, four, one)
	}
}

// TestStreamAllocs: a sort that fits one batch streams a KLOG's frames to
// emit allocating per frame read, arena chunk and growth of the batch slice —
// never per record.
func TestStreamAllocs(t *testing.T) {
	const n = 10240
	allocs := func(records int) float64 {
		fx := newEngineFixture(DefaultConfig())
		var got float64
		fx.run(t, func(p *sim.Proc) {
			ingestN(t, p, fx, "ks", records, func(i int) float32 { return 1 })
			if err := fx.eng.Sync(p, "ks"); err != nil {
				t.Fatal(err)
			}
			ks, _ := fx.eng.Keyspace("ks")
			s := newEngineSorter[klogEntry](fx.eng, phaseRunKlog, klogCodec{}, klogKey, compareKlog)
			emitted := 0
			emit := func(*sim.Proc, klogEntry) error {
				emitted++
				return nil
			}
			got = testing.AllocsPerRun(1, func() {
				emitted = 0
				err := s.Stream(p, newFrameSource(ks.klog, klogCodec{}, ks.logFrames, pipeline{}), emit)
				if err != nil || s.written != 0 || emitted != records {
					t.Fatalf("%d of %d records emitted, %d bytes written, err %v", emitted, records, s.written, err)
				}
			})
		})
		return got
	}
	one, four := allocs(n), allocs(4*n)
	if one > 100 || (four-one)/(3*n) > 0.01 {
		t.Fatalf("Stream allocated %v times for %d records and %v for %d", one, n, four, 4*n)
	}
}

// TestMergeSortedAllocs: a 16-way merge of 64k KLOG records decodes views
// and allocates per run and per chunk, not per record (BenchmarkMergeRuns16's
// pass).
func TestMergeSortedAllocs(t *testing.T) {
	fx := newSortFixture(64 << 20)
	fx.run(t, func(p *sim.Proc) {
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		all := benchKlogEntries(benchSortRecords)
		runs := make([]*Cluster, 16)
		for i := range runs {
			r, err := s.makeRuns(p, &sliceSource[klogEntry]{recs: all[i*len(all)/16 : (i+1)*len(all)/16]})
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = r[0]
		}
		n := testing.AllocsPerRun(3, func() {
			out, err := mergeKeep(p, s, runs)
			if err != nil {
				t.Fatal(err)
			}
			if err := out.Release(p); err != nil {
				t.Fatal(err)
			}
		})
		if n > 300 {
			t.Fatalf("16-way merge of %d records allocated %v times, want at most 300", len(all), n)
		}
	})
}

// TestSplitMergeAllocs: a merge whose slices are charged over three SoC cores
// allocates per 4096-record slice — the helper procs of its shares — never
// per record: the 16-way merge of TestMergeSortedAllocs costs at most a few
// dozen allocations per slice more on a 4-core SoC than on a 1-core one.
func TestSplitMergeAllocs(t *testing.T) {
	all := benchKlogEntries(benchSortRecords)
	allocs := func(cores int) (got float64) {
		fx := newSortFixture(64 << 20).onCores(cores)
		fx.run(t, func(p *sim.Proc) {
			s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
			s.splitMerges = true
			runs := make([]*Cluster, 16)
			for i := range runs {
				r, err := s.makeRuns(p, &sliceSource[klogEntry]{recs: all[i*len(all)/16 : (i+1)*len(all)/16]})
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = r[0]
			}
			got = testing.AllocsPerRun(3, func() {
				out, err := mergeKeep(p, s, runs)
				if err != nil {
					t.Fatal(err)
				}
				if err := out.Release(p); err != nil {
					t.Fatal(err)
				}
			})
		})
		return got
	}
	one, four := allocs(1), allocs(4)
	slices := float64(len(all) / 4096)
	t.Logf("%v slices: %v allocations on 4 cores, %v on 1", slices, four, one)
	if (four-one)/slices > 32 {
		t.Fatalf("%v slices allocated %v times on 4 cores, %v on 1", slices, four, one)
	}
}

// mergeKeep is mergeRuns without the release: it merges runs into a new
// sealed cluster through the sorter's writer and leaves them in place, so a
// test or benchmark can merge the same runs again.
func mergeKeep[T any](p *sim.Proc, s *Sorter[T], runs []*Cluster) (*Cluster, error) {
	out := s.zm.NewCluster(ZoneTemp)
	s.out.open(out, s.pipe, &s.written)
	err := s.merge(p, runs, nil, func(mp *sim.Proc, rec T) error {
		return putRecord(mp, &s.out, s.codec, rec)
	})
	if err != nil {
		s.out.stop(p)
		return nil, err
	}
	return out, s.out.finish(p)
}
