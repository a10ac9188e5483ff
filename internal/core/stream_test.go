package core

import (
	"testing"
	"time"

	"kvcsd/internal/compaction"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// sampleWhile runs sample on its own proc every microsecond of virtual time
// until body returns.
func sampleWhile(p *sim.Proc, sample func(), body func()) {
	done := false
	q := p.Env().Go("sampler", func(q *sim.Proc) {
		for !done {
			sample()
			q.Sleep(time.Microsecond)
		}
	})
	body()
	done = true
	p.Join(q)
}

// TestDRAMGaugeCountsSortBatch: engine/dram holds a compaction's key-sort
// batch — the SizeHint of every KLOG entry — while the batch streams from
// DRAM, and is back to zero once the compaction and its consolidated index
// build have ended.
func TestDRAMGaugeCountsSortBatch(t *testing.T) {
	fx := newEngineFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		const n = 4000
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i % 10) })
		ks, _ := fx.eng.Keyspace("ks")
		gauge := fx.eng.DRAMGauge()
		var inMerge float64
		sampleWhile(p, func() {
			if ks.progress.Stage == compaction.StageMerge {
				inMerge = max(inMerge, gauge.Value())
			}
		}, func() {
			if err := fx.eng.CompactWithIndexes(p, "ks", []nvme.SecondaryIndexSpec{energySpec("e")}); err != nil {
				t.Fatal(err)
			}
			if err := fx.eng.WaitIndexBuilt(p, "ks", "e"); err != nil {
				t.Fatal(err)
			}
		})
		if want := float64(n * klogCodec{}.SizeHint(klogEntry{key: tkey(0)})); inMerge != want {
			t.Errorf("engine/dram read %v while the key batch streamed, want its %v bytes", inMerge, want)
		}
		if v := gauge.Value(); v != 0 {
			t.Errorf("engine/dram reads %v after the compaction, want 0", v)
		}
	})
}

// TestCompactionProgressEndsComplete: the merge stage counts granules of the
// sorted-key bytes whether they sit in one DRAM batch or in runs, and both it
// and the compaction end with every granule done. BytesMoved counts media
// writes only: a key sort in DRAM moves nothing beyond SORTED_VALUES.
func TestCompactionProgressEndsComplete(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
	}{{"one batch", 8 << 20}, {"runs", 32 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SortBudgetBytes = tc.budget
			fx := newEngineFixture(cfg)
			fx.run(t, func(p *sim.Proc) {
				const n = 4000
				ingestN(t, p, fx, "ks", n, func(i int) float32 { return 1 })
				ks, _ := fx.eng.Keyspace("ks")
				keyBytes := int64(n * len(klogCodec{}.Encode(nil, klogEntry{key: tkey(0)})))
				want := granules(keyBytes, int64(fx.eng.cfg.BlockBytes))
				var last compaction.Progress
				sampleWhile(p, func() {
					if pr := ks.progress; pr.Stage == compaction.StageMerge {
						if pr.GranulesTotal != want || pr.GranulesDone > pr.GranulesTotal || pr.GranulesDone < last.GranulesDone {
							t.Errorf("merge stage at %d of %d granules after %d; want %d in all", pr.GranulesDone, pr.GranulesTotal, last.GranulesDone, want)
						}
						last = pr
					}
				}, func() { compactAndWait(t, p, fx, "ks") })
				if last.GranulesTotal != want || last.GranulesDone != want {
					t.Errorf("merge stage ended at %d of %d granules, want %d of %d", last.GranulesDone, last.GranulesTotal, want, want)
				}
				end := ks.progress
				if end.GranulesTotal == 0 || end.GranulesDone != end.GranulesTotal {
					t.Errorf("compaction ended at %d of %d granules", end.GranulesDone, end.GranulesTotal)
				}
				inDRAM := tc.budget >= 1<<20
				if sorted := uint64(ks.sorted.Len()); inDRAM != (end.BytesMoved == sorted) || end.BytesMoved < sorted {
					t.Errorf("moved %d bytes for %d of sorted values (key sort in DRAM: %v)", end.BytesMoved, sorted, inDRAM)
				}
			})
		})
	}
}
