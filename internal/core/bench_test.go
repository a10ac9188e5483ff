package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// benchQueries loads n pairs into a compacted keyspace "ks" and times body
// inside the simulation, so ns/op is the wall cost of the query path
// including the sim switches its media reads and SoC charges cause.
func benchQueries(b *testing.B, cfg Config, n int, body func(p *sim.Proc, eng *Engine)) {
	b.ReportAllocs()
	fx := newEngineFixture(cfg)
	fx.env.Go("bench", func(p *sim.Proc) {
		ingestN(b, p, fx, "ks", n, func(i int) float32 { return float32(i) })
		compactAndWait(b, p, fx, "ks")
		b.ResetTimer()
		body(p, fx.eng)
		b.StopTimer()
	})
	fx.env.Run()
}

const benchPairs = 20000 // ~150 PIDX blocks

func benchGets(b *testing.B, cfg Config) {
	benchQueries(b, cfg, benchPairs, func(p *sim.Proc, eng *Engine) {
		// A stride of 7919 pairs lands every get in a different block than
		// the one before it.
		for i, k := 0, 0; i < b.N; i, k = i+1, (k+7919)%benchPairs {
			if _, ok, err := eng.Get(p, "ks", tkey(k)); err != nil || !ok {
				b.Fatalf("get %d: found=%v err=%v", k, ok, err)
			}
		}
	})
}

// BenchmarkEngineGetHit: point gets with the whole PIDX resident in the
// index cache (after the first pass over the keys).
func BenchmarkEngineGetHit(b *testing.B) { benchGets(b, smallEngineConfig()) }

// BenchmarkEngineGetMiss: the cache holds a single block, so every get reads
// and parses its PIDX block and evicts the previous one (the record demoted
// from it does not fit beside the new block and is evicted too).
func BenchmarkEngineGetMiss(b *testing.B) {
	cfg := smallEngineConfig()
	cfg.IndexCacheBytes = int64(cfg.BlockBytes)
	benchGets(b, cfg)
}

// BenchmarkEngineGetZipf: zipf(0.99) point gets with the index cache at 1/8
// of the PIDX, after one warm-up get per pair, so hot records outlive their
// blocks in the cache. Reports the cache hit ratio and virtual µs per get.
func BenchmarkEngineGetZipf(b *testing.B) {
	benchQueries(b, smallEngineConfig(), benchPairs, func(p *sim.Proc, eng *Engine) {
		ks, _ := eng.Keyspace("ks")
		c := eng.idxCache
		c.capacity = ks.pidx.Len() / 8
		z := newZipf(rand.New(rand.NewSource(99)), benchPairs, 0.99)
		get := func() {
			k := z.next()
			if _, ok, err := eng.Get(p, "ks", tkey(k)); err != nil || !ok {
				b.Fatalf("get %d: found=%v err=%v", k, ok, err)
			}
		}
		for i := 0; i < benchPairs; i++ {
			get()
		}
		hits, lookups, start := c.hits.Value(), c.hits.Value()+c.misses.Value(), p.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get()
		}
		b.StopTimer()
		b.ReportMetric(float64(c.hits.Value()-hits)/float64(c.hits.Value()+c.misses.Value()-lookups), "hit_ratio")
		b.ReportMetric(float64(p.Now()-start)/1e3/float64(b.N), "virt_us/get")
	})
}

// zipf draws ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^theta for theta < 1
// (Gray et al.'s generator, as YCSB uses) and scatters rank r to item
// r·7919 mod n, so hot items fall in many index blocks.
type zipf struct {
	n                 int
	theta, alpha, eta float64
	zetan             float64
	rng               *rand.Rand
}

func newZipf(rng *rand.Rand, n int, theta float64) *zipf {
	z := &zipf{n: n, theta: theta, rng: rng}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *zipf) next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	rank := 0
	switch {
	case uz < 1:
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = min(int(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha)), z.n-1)
	}
	return rank * 7919 % z.n
}

// BenchmarkRangePrimary128: 128-pair primary scans from rotating start keys,
// index blocks cached.
func BenchmarkRangePrimary128(b *testing.B) {
	benchQueries(b, smallEngineConfig(), benchPairs, func(p *sim.Proc, eng *Engine) {
		for i, k := 0, 0; i < b.N; i, k = i+1, (k+7919)%(benchPairs-128) {
			n, err := eng.RangePrimary(p, "ks", tkey(k), nil, 128, func(nvme.KVPair) bool { return true })
			if err != nil || n != 128 {
				b.Fatalf("scan from %d: %d pairs, err %v", k, n, err)
			}
		}
	})
}

// BenchmarkRangePrimaryFull: full primary scans of a keyspace whose 1.2 MiB
// of values take five 256 KiB windows, after one scan has cached the index
// blocks. Reports virtual µs per scan, so a scan that reads in small pieces
// shows.
func BenchmarkRangePrimaryFull(b *testing.B) {
	const n = 2 * benchPairs
	benchQueries(b, smallEngineConfig(), n, func(p *sim.Proc, eng *Engine) {
		scan := func() {
			if got, err := eng.RangePrimary(p, "ks", nil, nil, 0, func(nvme.KVPair) bool { return true }); err != nil || got != n {
				b.Fatalf("full scan: %d pairs, err %v", got, err)
			}
		}
		scan()
		b.ResetTimer()
		start := p.Now()
		for i := 0; i < b.N; i++ {
			scan()
		}
		b.StopTimer()
		b.ReportMetric(float64(p.Now()-start)/1e3/float64(b.N), "virt_us/scan")
	})
}

const benchSortRecords = 64 << 10

// benchKlogEntries returns n KLOG entries in insertion order: 16-byte keys in
// shuffled order, about one in ten a re-insertion of an earlier key.
func benchKlogEntries(n int) []klogEntry {
	rng := rand.New(rand.NewSource(14))
	recs := make([]klogEntry, n)
	for i := range recs {
		k := rng.Intn(n * 10)
		if i > 0 && rng.Intn(10) == 0 {
			k = int(recs[rng.Intn(i)].vlen) // vlen remembers the key number
		}
		recs[i] = klogEntry{key: []byte(fmt.Sprintf("particle%08d", k)), vlen: uint32(k), vlogOff: uint64(i) * 32}
	}
	return recs
}

// benchSidxEntries returns n secondary entries in primary-key order with a
// float-like 4-byte secondary key, about one in ten shared with another entry.
func benchSidxEntries(n int) []sidxEntry {
	rng := rand.New(rand.NewSource(15))
	recs := make([]sidxEntry, n)
	for i := range recs {
		var skey [4]byte
		binary.BigEndian.PutUint32(skey[:], uint32(rng.Intn(n*5)))
		recs[i] = sidxEntry{skey: skey[:], pkey: []byte(fmt.Sprintf("particle%08d", i)), svOff: uint64(i) * 32, vlen: 32}
	}
	return recs
}

// benchSorter runs body inside a simulation with a sorter whose budget holds
// all of benchSortRecords in one batch.
func benchSorter[T any](b *testing.B, codec Codec[T], key func(T) []byte, cmp func(a, b T) int, body func(p *sim.Proc, s *Sorter[T])) {
	b.ReportAllocs()
	fx := newSortFixture(64 << 20)
	fx.env.Go("bench", func(p *sim.Proc) {
		body(p, NewSorter(fx.zm, fx.soc, fx.cfg, codec, key, cmp))
	})
	fx.env.Run()
}

func benchMakeRuns[T any](b *testing.B, codec Codec[T], key func(T) []byte, cmp func(a, b T) int, master []T) {
	b.Run("makeRuns", func(b *testing.B) {
		benchSorter(b, codec, key, cmp, func(p *sim.Proc, s *Sorter[T]) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runs, err := s.makeRuns(p, &sliceSource[T]{recs: master})
				if err != nil || len(runs) != 1 {
					b.Fatalf("%d runs, err %v", len(runs), err)
				}
				b.StopTimer()
				if err := releaseAll(p, runs); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	})
	// The sort step alone, on a job's already-grown buffers: 0 allocs/op.
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		var buf sortBuf[T]
		buf.recs = append(buf.recs, master...)
		shares := make([]int64, 3) // the A53's sort cores
		buf.msd(key, cmp, shares)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(buf.recs, master)
			buf.msd(key, cmp, shares)
		}
	})
}

// BenchmarkSorterMakeRuns: run formation over 64k records (~10 % duplicate
// keys) — sort one batch, encode it, append it to a scratch cluster.
func BenchmarkSorterMakeRuns(b *testing.B) {
	b.Run("klogEntry", func(b *testing.B) {
		benchMakeRuns[klogEntry](b, klogCodec{}, klogKey, compareKlog, benchKlogEntries(benchSortRecords))
	})
	b.Run("sidxEntry", func(b *testing.B) {
		benchMakeRuns[sidxEntry](b, sidxCodec{}, sidxKey, compareSidx, benchSidxEntries(benchSortRecords))
	})
}

// BenchmarkSorterStream: a sort of 64k records (~10 % duplicate keys) that
// fits one batch — copy each into the batch, sort it, and hand every record
// to emit straight from DRAM, with no run written or read back. "spilled"
// sorts the KLOG entries under a 512 KiB budget instead: they are cut into
// runs, and the one merge of those runs streams into emit, landing nothing.
func BenchmarkSorterStream(b *testing.B) {
	b.Run("klogEntry", func(b *testing.B) {
		benchStream[klogEntry](b, klogCodec{}, klogKey, compareKlog, benchKlogEntries(benchSortRecords), 0)
	})
	b.Run("sidxEntry", func(b *testing.B) {
		benchStream[sidxEntry](b, sidxCodec{}, sidxKey, compareSidx, benchSidxEntries(benchSortRecords), 0)
	})
	b.Run("spilled", func(b *testing.B) {
		benchStream[klogEntry](b, klogCodec{}, klogKey, compareKlog, benchKlogEntries(benchSortRecords), 512<<10)
	})
}

// benchStream sorts master through Stream b.N times, with the sorter's budget
// set to budget when it is not 0. A sort in one batch must write nothing, a
// spilled one its runs and nothing more.
func benchStream[T any](b *testing.B, codec Codec[T], key func(T) []byte, cmp func(a, b T) int, master []T, budget int) {
	benchSorter(b, codec, key, cmp, func(p *sim.Proc, s *Sorter[T]) {
		if budget > 0 {
			s.cfg.SortBudgetBytes = budget
		}
		n := 0
		emit := func(*sim.Proc, T) error {
			n++
			return nil
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n = 0
			written0, fed0 := s.written, s.fed
			err := s.Stream(p, &sliceSource[T]{recs: master}, emit)
			landed := s.written - written0
			if budget > 0 {
				landed -= uint64(s.fed - fed0)
			}
			if err != nil || n != len(master) || landed != 0 || (budget > 0) != (s.runs > 1) {
				b.Fatalf("%d of %d records, %d runs, %d bytes landed past the runs, err %v", n, len(master), s.runs, landed, err)
			}
		}
	})
}

// BenchmarkRadixSort: one SIDX batch's sort — 10 240 float32 energies drawn
// from Exp(1), in primary-key order as an index build delivers them, radix
// sorted on a job's already-grown buffers.
func BenchmarkRadixSort(b *testing.B) {
	const n = 10240
	rng := rand.New(rand.NewSource(23))
	master := make([]sidxEntry, n)
	for i := range master {
		master[i] = sidxEntry{skey: keyenc.PutFloat32(float32(rng.ExpFloat64())), pkey: keyenc.MakeFixedKey16(uint64(i)).Bytes(), vlen: 32}
	}
	key := sidxRadixKey(4)
	var buf sortBuf[sidxEntry]
	buf.recs = append(buf.recs, master...)
	buf.radix(key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf.recs, master)
		buf.radix(key)
	}
}

// BenchmarkGatherDestBucket: the destination pass's per-bucket
// read-decode-gather, 64k entries of 32-byte values in a shuffled VLOG order,
// through one gatherer.
func BenchmarkGatherDestBucket(b *testing.B) {
	b.ReportAllocs()
	fx := newSortFixture(0)
	fx.env.Go("bench", func(p *sim.Proc) {
		dest, vlog := writeDestBucket(b, p, fx, "spilled", shuffledDests(benchSortRecords, 32, 16), testVlog(benchSortRecords*32))
		var g valueGatherer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got, err := g.gather(p, passOn(fx.soc.Account(""), 1), dest, vlog, 0, benchSortRecords*32); err != nil || len(got) != benchSortRecords {
				b.Fatalf("%d records, err %v", len(got), err)
			}
		}
	})
	fx.env.Run()
}

// BenchmarkPlaceValueBucket: the value pass's per-bucket read-decode-place,
// 64k 32-byte values in a shuffled destination order, through one placer.
func BenchmarkPlaceValueBucket(b *testing.B) {
	b.ReportAllocs()
	fx := newSortFixture(0)
	fx.env.Go("bench", func(p *sim.Proc) {
		c := writeValueBucket(b, p, fx, shuffledValues(benchSortRecords, 32, 16))
		var v valuePlacer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, n, err := placeBucket(p, &v, passOn(fx.soc.Account(""), 1), c, 0); err != nil || n != benchSortRecords {
				b.Fatalf("%d records, err %v", n, err)
			}
		}
	})
	fx.env.Run()
}

// BenchmarkMergeRuns16: one 16-way merge pass — 16 sorted runs of 4096 KLOG
// entries read from scratch clusters, merged, re-encoded and written out
// (stages inline, no pipeline procs).
func BenchmarkMergeRuns16(b *testing.B) {
	benchSorter[klogEntry](b, klogCodec{}, klogKey, compareKlog, func(p *sim.Proc, s *Sorter[klogEntry]) {
		all := benchKlogEntries(benchSortRecords)
		runs := make([]*Cluster, 16)
		for i := range runs {
			part := all[i*len(all)/16 : (i+1)*len(all)/16]
			r, err := s.makeRuns(p, &sliceSource[klogEntry]{recs: part})
			if err != nil {
				b.Fatal(err)
			}
			runs[i] = r[0]
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := mergeKeep(p, s, runs)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := out.Release(p); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkCompactJoinedIndexes: one compaction of 8 000 pairs that three
// index builds join, extracted in its value pass and packed in parallel.
// ns/op is the wall cost of the job and its indexes, ingest excluded;
// virt_ms/op their virtual time.
func BenchmarkCompactJoinedIndexes(b *testing.B) {
	b.ReportAllocs()
	var virt sim.Time
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fx := newEngineFixture(oneBatchConfig())
		fx.env.Go("bench", func(p *sim.Proc) {
			ingestN(b, p, fx, "ks", 8000, func(i int) float32 { return float32(i % 1000) })
			b.StartTimer()
			t0 := p.Now()
			if err := fx.eng.Compact(p, "ks"); err != nil {
				b.Fatal(err)
			}
			for _, s := range variedSpecs {
				if err := fx.eng.BuildSecondaryIndex(p, "ks", s); err != nil {
					b.Fatal(err)
				}
			}
			if err := fx.eng.WaitBackgroundIdle(p); err != nil {
				b.Fatal(err)
			}
			virt += p.Now() - t0
			b.StopTimer()
			if got := fx.eng.sidxJoined.Value(); got != int64(len(variedSpecs)) {
				b.Fatalf("%d builds joined the compaction, want %d", got, len(variedSpecs))
			}
		})
		fx.env.Run()
	}
	b.ReportMetric(float64(virt)/1e6/float64(b.N), "virt_ms/op")
}

// BenchmarkCompactSpilled: one compaction of spilledPairs pairs with an
// index declared, its key sort and both bucket passes spilled, at the default
// pipeline width. ns/op is the wall cost of the job and its index, ingest
// excluded; virt_ms/op their virtual time.
func BenchmarkCompactSpilled(b *testing.B) {
	b.ReportAllocs()
	var virt time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fx := newEngineFixture(smallEngineConfig())
		fx.env.Go("bench", func(p *sim.Proc) {
			ingestSpilled(b, p, fx)
			b.StartTimer()
			virt += compactSpilled(b, p, fx, DefaultConfig().Compaction.PipelineWidth)
			b.StopTimer()
		})
		fx.env.Run()
	}
	b.ReportMetric(float64(virt)/1e6/float64(b.N), "virt_ms/op")
}

// BenchmarkBuildIndexSpilled: one separate build of energySpec("e") on a
// compacted keyspace of spilledPairs pairs, its sort spilled, at the default
// pipeline width. ns/op is the wall cost of the build, ingest and compaction
// excluded; virt_ms/op its virtual time.
func BenchmarkBuildIndexSpilled(b *testing.B) {
	b.ReportAllocs()
	var virt time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fx := newEngineFixture(smallEngineConfig())
		fx.env.Go("bench", func(p *sim.Proc) {
			ingestSpilled(b, p, fx)
			compactAndWait(b, p, fx, "ks")
			b.StartTimer()
			virt += buildSpilled(b, p, fx)
			b.StopTimer()
		})
		fx.env.Run()
	}
	b.ReportMetric(float64(virt)/1e6/float64(b.N), "virt_ms/op")
}
