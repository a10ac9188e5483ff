package core

import (
	"testing"
	"time"

	"kvcsd/internal/compaction"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// sampleWhile runs sample on its own proc every microsecond of virtual time
// until body returns, or stops the test: a t.Fatal in body must not leave the
// sampler ticking the simulation on forever.
func sampleWhile(p *sim.Proc, sample func(), body func()) {
	done := false
	q := p.Env().Go("sampler", func(q *sim.Proc) {
		for !done {
			sample()
			q.Sleep(time.Microsecond)
		}
	})
	defer func() { done = true }()
	body()
	done = true
	p.Join(q)
}

// TestDRAMGaugeCountsSortBatch: engine/dram holds a compaction's key-sort
// batch — the SizeHint of every KLOG entry — while the batch streams from
// DRAM, beside the destination bucket the stream fills; then the destination
// bucket, held because one bucket covers the keyspace, and the span its values
// are placed in, because they fit the sort budget; and, in a consolidated
// compaction, the index's batch beside the span.
// It counts every chunk its stage rings hold too. It peaks at exactly the
// largest of those sums, and is back to zero once the compaction and its
// consolidated index build have ended. A spilled value pass that an index
// joins holds two spans at once — the one the index extracts from and the
// one being placed — and counts both.
//
// A batch streamed from DRAM into staged writers takes no virtual time — the
// stream yields to no other proc — so the sampler does not read the gauge
// mid-stream: it reads the gauge's maximum, and a maximum it first sees in
// the merge stage was reached by the stream.
func TestDRAMGaugeCountsSortBatch(t *testing.T) {
	const n = 4000
	keyBatch := float64(n * klogCodec{}.SizeHint(klogEntry{key: tkey(0)}))
	dests := float64(n * destEntrySize)
	values := float64(n * len(tvalue(0, 0))) // the placed span
	sidxBatch := float64(n * sidxCodec{}.SizeHint(sidxEntry{skey: make([]byte, 4), pkey: tkey(0)}))
	// Ring bytes at the peaks: the stream's first PIDX burst, pushed
	// mid-stream, and SORTED_VALUES' one chunk of value bytes, pushed as the
	// value pass finishes while the span is still held.
	pidxBurst := float64(appendBurst)
	valueBytes := values
	for _, indexed := range []bool{false, true} {
		fx := newEngineFixture(DefaultConfig())
		fx.run(t, func(p *sim.Proc) {
			ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i % 10) })
			ks, _ := fx.eng.Keyspace("ks")
			gauge := fx.eng.DRAMGauge()
			var inMerge, seen float64
			inValues := map[float64]bool{}
			sampleWhile(p, func() {
				m := gauge.Max()
				switch v := gauge.Value(); ks.progress.Stage {
				case compaction.StageMerge:
					if m > seen {
						inMerge = m
					}
				case compaction.StageValues:
					inValues[v] = true
				}
				seen = m
			}, func() {
				if !indexed {
					compactAndWait(t, p, fx, "ks")
					return
				}
				if err := fx.eng.CompactWithIndexes(p, "ks", []nvme.SecondaryIndexSpec{energySpec("e")}); err != nil {
					t.Fatal(err)
				}
				if err := fx.eng.WaitIndexBuilt(p, "ks", "e"); err != nil {
					t.Fatal(err)
				}
			})
			// The ingest flushes before the job hold at most one 192 KiB
			// buffer, below every sum the job reaches.
			stream := keyBatch + dests + pidxBurst
			peak := max(stream, values+valueBytes)
			if indexed {
				peak = max(peak, values+sidxBatch+valueBytes)
			}
			if inMerge != stream {
				t.Errorf("indexed=%v: engine/dram reached %v while the key batch streamed, want its %v bytes, %v of destinations and a %v-byte PIDX burst", indexed, inMerge, keyBatch, dests, pidxBurst)
			}
			// The value stage holds the span until SORTED_VALUES is sealed,
			// then nothing while the job installs.
			if !indexed && (!inValues[values] || len(inValues) > 2 || len(inValues) == 2 && !inValues[0]) {
				t.Errorf("engine/dram read %v in the value stage, want the span's %v bytes, then 0", inValues, values)
			}
			if m := gauge.Max(); m != peak {
				t.Errorf("indexed=%v: engine/dram peaked at %v, want %v", indexed, m, peak)
			}
			if v := gauge.Value(); v != 0 {
				t.Errorf("indexed=%v: engine/dram reads %v after the compaction, want 0", indexed, v)
			}
		})
	}
	t.Run("spilled joined", dramCountsBothSpans)
}

// dramCountsBothSpans runs a spilled value pass at width 1, where no ring
// holds a chunk: in the value stage engine/dram less the joined index's batch
// is the two spans, each as long as a full value bucket's values — the 32 KiB
// sort budget — so the stage holds no more than the three budgets
// consolidates reserves for one joined index: the index's batch flushes
// before an entry would take it past its budget. Both spans are let go of
// when the compaction ends.
func dramCountsBothSpans(t *testing.T) {
	cfg := smallEngineConfig()
	bucketBytes := cfg.SortBudgetBytes
	fx := newEngineFixture(cfg)
	fx.eng.SetCompactionConfig(compaction.Config{PipelineWidth: 1})
	fx.run(t, func(p *sim.Proc) {
		ingestSpilled(t, p, fx)
		ks, _ := fx.eng.Keyspace("ks")
		gauge := fx.eng.DRAMGauge()
		var spans, stage float64
		sampleWhile(p, func() {
			if ks.progress.Stage != compaction.StageValues {
				return
			}
			held := gauge.Value()
			stage = max(stage, held)
			for _, st := range ks.joined {
				held -= float64(st.sorter.batchBytes)
			}
			spans = max(spans, held)
		}, func() {
			if err := fx.eng.CompactWithIndexes(p, "ks", []nvme.SecondaryIndexSpec{energySpec("e")}); err != nil {
				t.Fatal(err)
			}
			if err := fx.eng.WaitIndexBuilt(p, "ks", "e"); err != nil {
				t.Fatal(err)
			}
		})
		if want := float64(2 * bucketBytes); spans != want {
			t.Errorf("engine/dram held %v bytes beside the index's batch in the value stage, want two spans of %d", spans, bucketBytes)
		}
		if reserved := float64(3 * cfg.SortBudgetBytes); stage > reserved {
			t.Errorf("engine/dram reached %v bytes in the value stage, past the %v consolidates reserves for one index", stage, reserved)
		}
		if v := gauge.Value(); v != 0 {
			t.Errorf("engine/dram reads %v after the compaction, want 0", v)
		}
	})
}

// TestCompactionProgressEndsComplete: the merge stage counts granules of the
// sorted-key bytes whether they sit in one DRAM batch or in runs, and both it
// and the compaction end with every granule done. BytesMoved counts every
// byte the job appends: with both sorts in DRAM that is PIDX and
// SORTED_VALUES alone.
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
				// Both sorts in DRAM append only PIDX and SORTED_VALUES; past
				// the budget the key sort adds whole passes over the key
				// bytes, and the buckets spill every destination entry and
				// value record once.
				out := uint64(ks.pidx.Len() + ks.sorted.Len())
				if tc.budget >= 1<<20 {
					if end.BytesMoved != out {
						t.Errorf("moved %d bytes, want PIDX + SORTED_VALUES = %d", end.BytesMoved, out)
					}
				} else {
					buckets := uint64(n * (destEntrySize + len(valueCodec{}.Encode(nil, valueRec{value: tvalue(0, 0)}))))
					runs := int64(end.BytesMoved - out - buckets)
					if end.BytesMoved < out+buckets || runs == 0 || runs%keyBytes != 0 {
						t.Errorf("moved %d bytes, want PIDX + SORTED_VALUES = %d, %d of buckets and whole passes of %d key bytes", end.BytesMoved, out, buckets, keyBytes)
					}
				}
			})
		})
	}
}
