package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"kvcsd/internal/compaction"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// TestPipelinedIndexesMatchSequential: a spilled compaction that three
// indexes join — its value pass placing each span while the indexes extract
// from the one before, its PIDX cursor read ahead — writes PIDX,
// SORTED_VALUES and every SIDX byte for byte as the sequential order does: a compaction at width 1 with no index,
// then a separate build of each index at width 1. Separate builds that read
// PIDX and SORTED_VALUES ahead, at the default width, write the same SIDX.
// So do they when one 64 KiB value, twice smallEngineConfig's 32 KiB value
// bucket width, leaves the bucket after its own without a value: the pass
// places the bucket after that one while the index may still extract from
// the bucket the wide value opens.
func TestPipelinedIndexesMatchSequential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ingest func(t testing.TB, p *sim.Proc, fx *engineFixture)
	}{{"32-byte values", ingestSpilled}, {"a value wider than two buckets", ingestWideValue}} {
		t.Run(tc.name, func(t *testing.T) { pipelinedMatchesSequential(t, tc.ingest) })
	}
}

// ingestWideValue ingests the pairs ingestSpilled does, then overwrites the
// middle key with a 64 KiB value whose first 32 bytes are that key's value.
func ingestWideValue(t testing.TB, p *sim.Proc, fx *engineFixture) {
	ingestSpilled(t, p, fx)
	const mid = spilledPairs / 2
	wide := make([]byte, 64<<10)
	copy(wide, tvalue(mid, float32(mid%1000)))
	if err := fx.eng.BulkOps(p, "ks", []nvme.KVPair{{Key: tkey(mid), Value: wide}}); err != nil {
		t.Fatal(err)
	}
}

func pipelinedMatchesSequential(t *testing.T, ingest func(t testing.TB, p *sim.Proc, fx *engineFixture)) {
	type output struct {
		pidx, sorted []byte
		sidx         [][]byte
	}
	run := func(width int, joined bool) output {
		var out output
		fx := newEngineFixture(smallEngineConfig())
		fx.eng.SetCompactionConfig(compaction.Config{PipelineWidth: width})
		fx.run(t, func(p *sim.Proc) {
			ingest(t, p, fx)
			if joined {
				if err := fx.eng.CompactWithIndexes(p, "ks", variedSpecs); err != nil {
					t.Fatal(err)
				}
			} else {
				compactAndWait(t, p, fx, "ks")
				for _, s := range variedSpecs {
					if err := fx.eng.BuildSecondaryIndex(p, "ks", s); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := fx.eng.WaitBackgroundIdle(p); err != nil {
				t.Fatal(err)
			}
			if got, want := fx.eng.sidxJoined.Value(), int64(len(variedSpecs)); joined != (got == want) {
				t.Fatalf("width %d, joined %v: %d builds joined the compaction", width, joined, got)
			}
			ks, _ := fx.eng.Keyspace("ks")
			out.pidx, out.sorted = readCluster(t, p, ks.pidx), readCluster(t, p, ks.sorted)
			for _, s := range variedSpecs {
				out.sidx = append(out.sidx, readCluster(t, p, ks.secondary[s.Name].cluster))
			}
		})
		return out
	}
	seq := run(1, false)
	width := DefaultConfig().Compaction.PipelineWidth
	for _, tc := range []struct {
		name string
		out  output
	}{{"joined", run(width, true)}, {"separate", run(width, false)}} {
		if !bytes.Equal(tc.out.pidx, seq.pidx) || !bytes.Equal(tc.out.sorted, seq.sorted) {
			t.Errorf("%s at width %d: PIDX (%d bytes) or SORTED_VALUES (%d bytes) differ from the sequential order's (%d, %d)",
				tc.name, width, len(tc.out.pidx), len(tc.out.sorted), len(seq.pidx), len(seq.sorted))
		}
		for i, s := range variedSpecs {
			if !bytes.Equal(tc.out.sidx[i], seq.sidx[i]) {
				t.Errorf("%s at width %d: SIDX %s (%d bytes) differs from the sequential order's (%d bytes)",
					tc.name, width, s.Name, len(tc.out.sidx[i]), len(seq.sidx[i]))
			}
		}
	}
}

// TestValuePassOverlapsExtraction: in a spilled compaction that an index
// joins, the value pass places the next span while the index still forms a
// run from the one before — a placement is charged while a run-formation
// flush is under way — so the index adds less to the pass than its flushes
// take: at most 0.85 of them over the same compaction's pass with no index.
// A pass that joined each span's extraction before placing the next would
// wait out every flush (measured with that join put back: no placement
// during a flush, 2.92 ms added to a 1.16 ms pass against 2.88 ms of
// flushes; pipelined, 1.93 ms against 2.83 ms). The pass ends when its last
// span is handed to SORTED_VALUES.
func TestValuePassOverlapsExtraction(t *testing.T) {
	type pass struct {
		took, flushing time.Duration
		overlaps       int // samples in which a placement was charged mid-flush
	}
	// A batch flushes before an entry would take it past the budget, so a
	// batch with no room for one more is a batch being written out.
	entry := sidxCodec{}.SizeHint(sidxEntry{skey: make([]byte, 4), pkey: tkey(0)})
	run := func(specs []nvme.SecondaryIndexSpec) pass {
		var r pass
		fx := newEngineFixture(smallEngineConfig())
		fx.run(t, func(p *sim.Proc) {
			ingestSpilled(t, p, fx)
			ks, _ := fx.eng.Keyspace("ks")
			var start, end sim.Time
			var placed int64
			sampleWhile(p, func() {
				pr := ks.progress
				if pr.Stage != compaction.StageValues || end != 0 {
					return
				}
				if start == 0 {
					start = p.Now()
				}
				flushing := false
				for _, st := range ks.joined {
					flushing = flushing || st.sorter.batchBytes+entry > fx.eng.cfg.SortBudgetBytes
				}
				charged := fx.eng.SoCLedger()[phaseValuePass].Ns
				if flushing {
					r.flushing += time.Microsecond
					if charged != placed {
						r.overlaps++
					}
				}
				placed = charged
				if pr.GranulesDone == pr.GranulesTotal {
					end = p.Now()
				}
			}, func() {
				if err := fx.eng.CompactWithIndexes(p, "ks", specs); err != nil {
					t.Fatal(err)
				}
				if err := fx.eng.WaitBackgroundIdle(p); err != nil {
					t.Fatal(err)
				}
			})
			r.took = time.Duration(end - start)
		})
		return r
	}
	alone := run(nil)
	joined := run([]nvme.SecondaryIndexSpec{energySpec("e")})
	added := joined.took - alone.took
	t.Logf("value pass %v alone, %v with the index joined; %v of run-formation flushes, %d placements charged mid-flush",
		alone.took, joined.took, joined.flushing, joined.overlaps)
	if joined.flushing == 0 {
		t.Fatal("the index formed no run during the value pass: the case does not spill")
	}
	if joined.overlaps == 0 {
		t.Error("no span was placed while the index formed a run from the one before")
	}
	if float64(added) > 0.85*float64(joined.flushing) {
		t.Errorf("the joined index added %v to the value pass, more than 0.85 of its %v of flushes", added, joined.flushing)
	}
}

// TestDeclaredExtractionFailsMidPass: a declared index whose byte range runs
// past the values of a middle value bucket — the 500 keys from 2 500 of
// 6 000 have 16-byte values, the index reads bytes 28 to 32 — fails the
// compaction there, with the index and a second one declared beside it. The
// job lets go of every cluster it was writing (no ZoneTemp, PIDX,
// SORTED_VALUES or SIDX zone stays owned), engine/dram reads 0, and no proc
// is left: nothing is scheduled once the background work is done, and a
// proc left blocked would panic the simulation.
func TestDeclaredExtractionFailsMidPass(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		if err := fx.eng.CreateKeyspace(p, "ks"); err != nil {
			t.Fatal(err)
		}
		var pairs []nvme.KVPair
		for i := 0; i < 6000; i++ {
			v := tvalue(i, float32(i))
			if i >= 2500 && i < 3000 {
				v = v[:16]
			}
			pairs = append(pairs, nvme.KVPair{Key: tkey(i), Value: v})
			if len(pairs) == 256 || i == 5999 {
				if err := fx.eng.BulkOps(p, "ks", pairs); err != nil {
					t.Fatal(err)
				}
				pairs = pairs[:0]
			}
		}
		ks, _ := fx.eng.Keyspace("ks")
		var done, total uint32
		sampleWhile(p, func() {
			if pr := ks.progress; pr.Stage == compaction.StageValues {
				done, total = pr.GranulesDone, pr.GranulesTotal
			}
		}, func() {
			if err := fx.eng.CompactWithIndexes(p, "ks", []nvme.SecondaryIndexSpec{energySpec("e"), energySpec2("f")}); err != nil {
				t.Fatal(err)
			}
			if err := fx.eng.WaitCompacted(p, "ks"); err == nil {
				t.Fatal("compaction with an index past the middle values succeeded")
			}
		})
		if done == 0 || done >= total {
			t.Errorf("the value pass failed at granule %d of %d, want a middle one", done, total)
		}
		for _, name := range []string{"e", "f"} {
			if err := fx.eng.WaitIndexBuilt(p, "ks", name); !errors.Is(err, ErrIndexFailed) {
				t.Errorf("index %s: %v, want a failed build", name, err)
			}
		}
		_ = fx.eng.WaitBackgroundIdle(p)
		if fx.env.Busy() {
			t.Error("a proc is still scheduled after the failed compaction")
		}
		used := fx.eng.zm.UsedByType()
		for _, typ := range []ZoneType{ZoneTemp, ZonePIDX, ZoneSortedValues, ZoneSIDX} {
			if used[typ] != 0 {
				t.Errorf("%d %v zones still owned after the failed compaction", used[typ], typ)
			}
		}
		if v := fx.eng.DRAMGauge().Value(); v != 0 {
			t.Errorf("engine/dram reads %v after the failed compaction, want 0", v)
		}
		checkAccounting(t, fx.eng.zm)
	})
}

// TestValuePassAllocs: the value pass allocates its second span and its
// second entry and key arena once per compaction, never once per span. A
// pass over eight spilled value buckets, with a joined index that failed
// already (so no extraction proc runs, but every span's PIDX entries and
// keys are copied), once its spans have grown, allocates no more than
// placing the same buckets through one placer and walking the same PIDX
// entries does.
func TestValuePassAllocs(t *testing.T) {
	const buckets, width = 8, 32 << 10
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestSpilled(t, p, fx)
		compactAndWait(t, p, fx, "ks")
		ks, _ := fx.eng.Keyspace("ks")
		sorted := readCluster(t, p, ks.sorted)
		if len(sorted) < buckets*width {
			t.Fatalf("%d value bytes, want at least %d buckets of %d", len(sorted), buckets, width)
		}
		var bkts []bucket
		count := 0
		for b := 0; b < buckets; b++ {
			var enc []byte
			for off := b * width; off < (b+1)*width; off += 32 { // 32-byte values, width a multiple of 32
				enc = valueCodec{}.Encode(enc, valueRec{destOff: uint64(off), value: sorted[off : off+32]})
				count++
			}
			c := fx.eng.zm.NewCluster(ZoneTemp)
			if err := c.Append(p, enc); err != nil {
				t.Fatal(err)
			}
			if err := c.Seal(p); err != nil {
				t.Fatal(err)
			}
			bkts = append(bkts, bucket{c: c})
		}
		failed := &sidxStage{si: &secondaryIndex{spec: energySpec("e")}, err: errors.New("failed already")}
		cpu := passOn(fx.soc.Account(""), 1)
		var w chunkWriter
		w.open(nopSink{}, pipeline{}, nil)
		vp := &valuePass{e: fx.eng, ks: ks}
		stages := []*sidxStage{failed}
		pass := func() {
			vp.next = 0
			vp.start(&w, ks.pidx, stages, pipeline{})
			for _, bk := range bkts {
				if err := vp.place(p, cpu, bk); err != nil {
					t.Fatal(err)
				}
			}
			if err := vp.join(p); err != nil {
				t.Fatal(err)
			}
		}
		var v valuePlacer
		read := func() {
			var next uint64
			cur := &pidxCursor{win: clusterWindow{c: ks.pidx, pf: pipeline{}.prefetch(whole(ks.pidx))}, cfg: fx.eng.cfg}
			for _, bk := range bkts {
				out, n, err := placeBucket(p, &v, cpu, bk, next)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if _, ok, err := cur.next(p); !ok || err != nil {
						t.Fatalf("PIDX ended at entry %d of a span (err %v)", i, err)
					}
				}
				next += uint64(len(out))
			}
		}
		pass() // grows both spans, entry lists and arenas
		read()
		pipelined := testing.AllocsPerRun(5, pass)
		plain := testing.AllocsPerRun(5, read)
		t.Logf("a pass over %d buckets (%d values) allocates %v times, placing them and walking their entries %v", buckets, count, pipelined, plain)
		if pipelined > plain+1 {
			t.Errorf("a pass over %d buckets allocated %v times, placing them and walking their PIDX entries %v: more than the pass's own cursor and read-ahead", buckets, pipelined, plain)
		}
		vp.stop(p)
		if v := fx.eng.DRAMGauge().Value(); v != 0 {
			t.Errorf("engine/dram reads %v once the pass stopped, want 0", v)
		}
	})
}
