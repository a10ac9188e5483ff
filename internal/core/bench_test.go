package core

import (
	"testing"

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
// and parses its PIDX block and evicts the previous one.
func BenchmarkEngineGetMiss(b *testing.B) {
	cfg := smallEngineConfig()
	cfg.IndexCacheBytes = int64(cfg.BlockBytes)
	benchGets(b, cfg)
}

// BenchmarkRangePrimary128: 128-pair primary scans from rotating start keys,
// index blocks cached.
func BenchmarkRangePrimary128(b *testing.B) {
	benchQueries(b, smallEngineConfig(), benchPairs, func(p *sim.Proc, eng *Engine) {
		for i, k := 0, 0; i < b.N; i, k = i+1, (k+7919)%(benchPairs-128) {
			n, err := eng.RangePrimary(p, "ks", tkey(k), nil, 128, func(Pair) bool { return true })
			if err != nil || n != 128 {
				b.Fatalf("scan from %d: %d pairs, err %v", k, n, err)
			}
		}
	})
}
