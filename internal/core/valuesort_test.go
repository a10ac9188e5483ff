package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"kvcsd/internal/compaction"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// ingestShuffled creates keyspace ks and bulk-loads n keys of vsize-byte
// random values in a shuffled key order, putting every seventh key twice so
// the compaction drops a superseded value, then syncs. It returns the value
// each key must read back.
func ingestShuffled(t testing.TB, p *sim.Proc, eng *Engine, ks string, n, vsize int) map[string][]byte {
	t.Helper()
	if err := eng.CreateKeyspace(p, ks); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n*131 + vsize)))
	want := make(map[string][]byte, n)
	var pairs []nvme.KVPair
	put := func(k int) {
		v := make([]byte, vsize)
		rng.Read(v)
		pairs = append(pairs, nvme.KVPair{Key: tkey(k), Value: v})
		want[string(tkey(k))] = v
	}
	for i, k := range rng.Perm(n) {
		put(k)
		if k%7 == 0 {
			put(k)
		}
		if len(pairs) >= 256 || i == n-1 {
			if err := eng.BulkOps(p, ks, pairs); err != nil {
				t.Fatal(err)
			}
			pairs = pairs[:0]
		}
	}
	if err := eng.Sync(p, ks); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkPairs reads every key of want back from eng.
func checkPairs(t testing.TB, p *sim.Proc, eng *Engine, ks string, want map[string][]byte) {
	t.Helper()
	for k, v := range want {
		got, ok, err := eng.Get(p, ks, []byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("get %s: %x, found %v, err %v; want %x", k, got, ok, err, v)
		}
	}
}

// readCluster returns the bytes of c.
func readCluster(t testing.TB, p *sim.Proc, c *Cluster) []byte {
	t.Helper()
	b := make([]byte, c.Len())
	if err := c.ReadAt(p, b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// valueSortRun is what one separated compaction of an ingestShuffled set left
// and cost.
type valueSortRun struct {
	pidx, sorted    []byte
	live            int64
	moved           uint64 // the job's BytesMoved
	fed             int64  // encoded KLOG bytes: one key-sort pass
	clusters        int64  // clusters the job created
	tempZones       int    // most ZoneTemp zones owned at once, sampled
	destNs, valueNs int64  // the dest_pass and value_pass ledger lines
	passNs          int64  // what one pass over the live pairs is charged
}

// runValueSort compacts n pairs of vsize-byte values under a sort budget.
func runValueSort(t *testing.T, budget, n, vsize int) valueSortRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SortBudgetBytes = budget
	fx := newEngineFixture(cfg)
	var r valueSortRun
	fx.run(t, func(p *sim.Proc) {
		want := ingestShuffled(t, p, fx.eng, "ks", n, vsize)
		ks, _ := fx.eng.Keyspace("ks")
		puts := n + (n+6)/7 // ingestShuffled puts every seventh key twice
		r.fed = int64(puts * len(klogCodec{}.Encode(nil, klogEntry{key: tkey(0)})))
		seq0, led0 := fx.eng.zm.clusterSeq, fx.eng.SoCLedger()
		sampleWhile(p, func() {
			r.tempZones = max(r.tempZones, fx.eng.zm.UsedByType()[ZoneTemp])
		}, func() { compactAndWait(t, p, fx, "ks") })
		led := fx.eng.SoCLedger()
		r.clusters = fx.eng.zm.clusterSeq - seq0
		r.destNs = led[phaseDestPass].Ns - led0[phaseDestPass].Ns
		r.valueNs = led[phaseValuePass].Ns - led0[phaseValuePass].Ns
		r.pidx, r.sorted = readCluster(t, p, ks.pidx), readCluster(t, p, ks.sorted)
		r.live, r.moved = ks.count, ks.progress.BytesMoved
		cpu := fx.soc.Config()
		r.passNs = int64(float64(time.Duration(r.live)*cpu.CompareCost) / cpu.Speed)
		checkPairs(t, p, fx.eng, "ks", want)
	})
	return r
}

// TestValueSortOneBucketStaysInDRAM: a separated compaction whose VLOG fits
// one bucket of the sort budget keeps both bucket passes in SoC DRAM. It
// creates no cluster beyond PIDX and SORTED_VALUES (its key sort fits one
// batch too), owns no ZoneTemp zone at any instant, and appends nothing but
// those two clusters' bytes. Its PIDX and SORTED_VALUES are byte for byte
// those of the same compaction with every bucket spilled, and the two passes
// are charged as before: one compare unit per live pair each.
func TestValueSortOneBucketStaysInDRAM(t *testing.T) {
	const n, vsize = 3000, 32
	held := runValueSort(t, 8<<20, n, vsize)
	spilled := runValueSort(t, 16<<10, n, vsize) // VLOG ≈ 110 KB: 7 buckets
	if held.clusters != 2 || held.tempZones != 0 {
		t.Errorf("held: the job created %d clusters and owned up to %d ZoneTemp zones, want 2 and 0", held.clusters, held.tempZones)
	}
	if want := uint64(len(held.pidx) + len(held.sorted)); held.moved != want {
		t.Errorf("held: the job appended %d bytes, want PIDX + SORTED_VALUES = %d", held.moved, want)
	}
	if spilled.tempZones == 0 {
		t.Errorf("spilled: no ZoneTemp zone owned: the reference run did not spill")
	}
	if !bytes.Equal(held.pidx, spilled.pidx) || !bytes.Equal(held.sorted, spilled.sorted) {
		t.Errorf("held and spilled value sorts wrote different PIDX (%d / %d bytes) or SORTED_VALUES (%d / %d bytes)",
			len(held.pidx), len(spilled.pidx), len(held.sorted), len(spilled.sorted))
	}
	if held.destNs != held.passNs || held.valueNs != held.passNs {
		t.Errorf("held: dest_pass %d ns, value_pass %d ns; want %d each (%d live pairs)", held.destNs, held.valueNs, held.passNs, held.live)
	}
}

// TestValueSortSpillsPastBudget: a one-bucket writer holds its records in
// SoC DRAM, counted in engine/dram, until the next record would pass the sort
// budget. Then it opens the bucket's cluster, appends exactly what it held —
// which leaves the gauge — and goes on in bursts; gathered or placed, the
// spilled bucket gives what the held one does. At engine level, compactions
// whose destination bucket or value bucket spills that way write the PIDX and
// SORTED_VALUES of the compaction that holds both, and append the spilled
// bucket's bytes once.
func TestValueSortSpillsPastBudget(t *testing.T) {
	t.Run("writer", func(t *testing.T) {
		const budget, count, vsize = 4096, 300, 4
		cfg := DefaultConfig()
		cfg.SortBudgetBytes = budget
		fx := newEngineFixture(cfg)
		fx.run(t, func(p *sim.Proc) {
			recs := shuffledValues(count, vsize, 9)
			enc := encodeValues(recs)
			recSize := len(enc) / count
			gauge := fx.eng.DRAMGauge()
			var moved uint64
			w := fx.eng.newBucketWriter(count*vsize+1, &moved)
			for i, r := range recs {
				if err := w.add(p, r.destOff, valueCodec{}.Encode(nil, r)); err != nil {
					t.Fatal(err)
				}
				bk := w.buckets()[0]
				if held := (i+1)*recSize <= budget; held {
					if bk.c != nil || gauge.Value() != float64((i+1)*recSize) || moved != 0 {
						t.Fatalf("record %d: spilled %v, engine/dram %v, appended %d; want %d bytes held", i, bk.c != nil, gauge.Value(), moved, (i+1)*recSize)
					}
				} else if bk.c == nil || gauge.Value() != 0 || moved != budget/uint64(recSize)*uint64(recSize) {
					t.Fatalf("record %d: spilled %v, engine/dram %v, appended %d; want the %d held bytes appended", i, bk.c != nil, gauge.Value(), moved, budget/recSize*recSize)
				}
			}
			if err := w.finish(p); err != nil {
				t.Fatal(err)
			}
			if got := w.buckets()[0]; moved != uint64(len(enc)) || got.len() != int64(len(enc)) || len(w.buckets()) != 1 {
				t.Fatalf("finished: appended %d, bucket of %d bytes in %d buckets; want one of %d", moved, got.len(), len(w.buckets()), len(enc))
			}
			cpu := fx.soc.Account("")
			var fromHeld, fromSpilled valuePlacer
			want, _, err := fromHeld.place(p, cpu, bucket{buf: enc}, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := fromSpilled.place(p, cpu, w.buckets()[0], 0)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("spilled bucket placed %x (err %v), want %x", got, err, want)
			}
			if err := w.release(p); err != nil {
				t.Fatal(err)
			}
			if used := fx.eng.zm.UsedByType()[ZoneTemp]; used != 0 || gauge.Value() != 0 {
				t.Fatalf("released: %d ZoneTemp zones, engine/dram %v", used, gauge.Value())
			}
		})
	})
	for _, tc := range []struct {
		name          string
		vsize, budget int
		spilled       int // bytes per live pair of the bucket that spills
	}{
		// 4-byte values: a 14 KB VLOG, 60 KB of destination entries.
		{"destination bucket", 4, 56 << 10, destEntrySize},
		// 32-byte values: a 110 KB VLOG, 132 KB of value records.
		{"value bucket", 32, 120 << 10, 12 + 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 3000
			held := runValueSort(t, 8<<20, n, tc.vsize)
			run := runValueSort(t, tc.budget, n, tc.vsize)
			if !bytes.Equal(held.pidx, run.pidx) || !bytes.Equal(held.sorted, run.sorted) {
				t.Fatalf("budget %d: PIDX or SORTED_VALUES differ from the held run's", tc.budget)
			}
			// The key sort passes the budget too, so the job also appends whole
			// passes over the KLOG bytes; the buckets add the spilled one's
			// bytes and nothing of the held one.
			buckets := uint64(run.live) * uint64(tc.spilled)
			extra := int64(run.moved) - int64(len(run.pidx)+len(run.sorted)) - int64(buckets)
			if extra <= 0 || extra%run.fed != 0 {
				t.Fatalf("budget %d: the job appended %d bytes: PIDX + SORTED_VALUES %d, %d spilled, and %d more — not whole key-sort passes of %d",
					tc.budget, run.moved, len(run.pidx)+len(run.sorted), buckets, extra, run.fed)
			}
			if run.destNs != run.passNs || run.valueNs != run.passNs {
				t.Fatalf("budget %d: dest_pass %d ns, value_pass %d ns; want %d each", tc.budget, run.destNs, run.valueNs, run.passNs)
			}
		})
	}
}

// TestMultiBucketCompactionMediaBytes: a compaction whose buckets cover the
// VLOG in several ranges spills every bucket from its first record, as it
// always did: it writes exactly the media bytes the value sort wrote before
// one-bucket passes stayed in DRAM, less the key sort's landed final merge.
func TestMultiBucketCompactionMediaBytes(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestShuffled(t, p, fx.eng, "ks", 3000, 32)
		written0 := fx.st.MediaWrite.Value()
		compactAndWait(t, p, fx, "ks")
		if w := fx.st.MediaWrite.Value() - written0; w != multiBucketMediaBytes {
			t.Fatalf("the compaction wrote %d media bytes, want %d", w, multiBucketMediaBytes)
		}
	})
}

// multiBucketMediaBytes is what TestMultiBucketCompactionMediaBytes's
// compaction writes. It wrote 597 085 bytes before one-bucket passes stayed
// in DRAM, when every bucket spilled to a temp cluster, and still did while
// the key sort landed its final merge in a scratch cluster and scanned it
// back. The key sort's final merge now streams into the pass over sorted keys
// and lands nothing, so the compaction writes 90 112 bytes fewer, the run that
// held every sorted KLOG entry: 506 973.
const multiBucketMediaBytes = 506973

// TestCompactedDurableWhenReported: WaitCompacted returns only once the frame
// that records the keyspace COMPACTED is on media, and the job's scratch is
// gone by then. Power is cut the instant it returns — in the combined layout,
// and in the separated one with its value sort held in DRAM, spilled past the
// budget and spread over many buckets — and the recovered engine has the
// keyspace COMPACTED, reads back every pair, and finds no zone left to sweep
// and no ZoneTemp zone owned. A cut during a held value pass loses that pass
// with its DRAM: recovery gives back the logs with every synced pair, sealed
// when a metadata write recorded them so — then a put is refused until the
// keyspace is compacted.
func TestCompactedDurableWhenReported(t *testing.T) {
	const n, vsize = 3000, 4
	// recoverAfterCut cuts power (a no-op if it is off already), restarts and
	// recovers; finished says the job ended before the cut, so it left no
	// zone behind.
	recoverAfterCut := func(t *testing.T, p *sim.Proc, fx *engineFixture, cfg Config, finished bool) *Engine {
		t.Helper()
		fx.eng.Halt()
		fx.dev.PowerCut(p)
		fx.dev.PowerOn()
		next := NewEngine(fx.env, fx.dev, fx.soc, cfg, sim.NewRNG(41), fx.st)
		if err := next.Recover(p); err != nil {
			t.Fatalf("recover: %v", err)
		}
		rep, err := next.Scrub(p)
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		if finished && rep.OrphanZones != 0 {
			t.Errorf("the recovery sweep reset %d zones the finished job left behind", rep.OrphanZones)
		}
		if used := next.zm.UsedByType()[ZoneTemp]; used != 0 {
			t.Errorf("%d ZoneTemp zones owned after recovery", used)
		}
		return next
	}
	for _, tc := range []struct {
		name     string
		combined bool
		budget   int
	}{
		{"combined", true, 8 << 20},
		{"separated/held", false, 8 << 20},
		{"separated/spilled past the budget", false, 56 << 10},
		{"separated/many buckets", false, 4 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SortBudgetBytes, cfg.DisableKVSeparation = tc.budget, tc.combined
			fx := newEngineFixture(cfg)
			fx.run(t, func(p *sim.Proc) {
				want := ingestShuffled(t, p, fx.eng, "ks", n, vsize)
				compactAndWait(t, p, fx, "ks")
				next := recoverAfterCut(t, p, fx, cfg, true)
				ks, err := next.Keyspace("ks")
				if err != nil {
					t.Fatal(err)
				}
				if ks.state != StateCompacted {
					t.Fatalf("recovered keyspace is %s, want COMPACTED", ks.state)
				}
				checkPairs(t, p, next, "ks", want)
			})
		})
	}
	t.Run("cut during a held value pass", func(t *testing.T) {
		cfg := DefaultConfig()
		fx := newEngineFixture(cfg)
		fx.run(t, func(p *sim.Proc) {
			want := ingestShuffled(t, p, fx.eng, "ks", n, vsize)
			ks, _ := fx.eng.Keyspace("ks")
			if err := fx.eng.Compact(p, "ks"); err != nil {
				t.Fatal(err)
			}
			// Another keyspace's metadata write records the logs as the job
			// sealed them.
			for !ks.klog.Sealed() {
				p.Sleep(time.Microsecond)
			}
			if err := fx.eng.CreateKeyspace(p, "other"); err != nil {
				t.Fatal(err)
			}
			for ks.progress.Stage != compaction.StageValues {
				p.Sleep(time.Microsecond)
			}
			// Nothing but the value bucket is in DRAM now.
			if held, want := fx.eng.DRAMGauge().Value(), float64(len(want)*(12+vsize)); held != want {
				t.Fatalf("engine/dram reads %v at the cut, want the held value bucket's %v bytes", held, want)
			}
			fx.eng.Halt()
			fx.dev.PowerCut(p)
			if err := fx.eng.WaitBackgroundIdle(p); err == nil {
				t.Fatal("the compaction cut mid-pass reported no error")
			}
			if v := fx.eng.DRAMGauge().Value(); v != 0 {
				t.Errorf("engine/dram reads %v after the failed job, want 0", v)
			}
			next := recoverAfterCut(t, p, fx, cfg, false)
			rks, err := next.Keyspace("ks")
			if err != nil {
				t.Fatal(err)
			}
			if rks.state != StateWritable || rks.klog == nil || rks.vlog == nil {
				t.Fatalf("recovered keyspace is %s (logs %v, %v), want WRITABLE with its logs", rks.state, rks.klog != nil, rks.vlog != nil)
			}
			// The cut job sealed the logs: a put is refused, a compaction not.
			if err := next.Put(p, "ks", []byte("late"), []byte("v")); !errors.Is(err, ErrKeyspaceState) {
				t.Fatalf("put into the recovered keyspace: %v, want %v", err, ErrKeyspaceState)
			}
			if err := next.Compact(p, "ks"); err != nil {
				t.Fatal(err)
			}
			if err := next.WaitCompacted(p, "ks"); err != nil {
				t.Fatal(err)
			}
			checkPairs(t, p, next, "ks", want)
		})
	})
}

// TestBucketInDRAMAllocs: a held bucket grows by doubling, so filling it
// allocates with the log of its bytes, not per record — sixteen times the
// records cost at most four allocations more, outside -race — and gathering or placing it
// straight from DRAM allocates nothing per record once the gatherer or placer
// has grown to it: a gather no more than reading its VLOG span does, a
// placement nothing at all.
func TestBucketInDRAMAllocs(t *testing.T) {
	fx := newEngineFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		fill := func(count int) {
			var moved uint64
			w := fx.eng.newBucketWriter(uint64(count*32)+1, &moved)
			rec := destCodec{}.Encode(nil, destEntry{vlen: 32})
			for i := 0; i < count; i++ {
				if err := w.add(p, uint64(i*32), rec); err != nil {
					t.Fatal(err)
				}
			}
			w.drop()
		}
		// The race detector's instrumentation allocates as the buffer grows,
		// so the growth bound holds in plain builds only (CI's bench smoke
		// step runs it there).
		few := testing.AllocsPerRun(5, func() { fill(4096) })
		many := testing.AllocsPerRun(5, func() { fill(16 * 4096) })
		if !raceEnabled && many > few+4 {
			t.Errorf("filling a held bucket allocated %v times for 4096 records, %v for 16×4096", few, many)
		}

		const big, small = 8192, 1000
		vlog := fx.eng.zm.NewCluster(ZoneVLOG)
		if err := vlog.Append(p, testVlog(big*32)); err != nil {
			t.Fatal(err)
		}
		if err := vlog.Seal(p); err != nil {
			t.Fatal(err)
		}
		cpu := fx.soc.Account("")
		var g valueGatherer
		var v valuePlacer
		for _, count := range []int{big, small} {
			dests := bucket{buf: encodeDests(shuffledDests(count, 32, int64(count)))}
			values := bucket{buf: encodeValues(shuffledValues(count, 32, int64(count)))}
			if _, err := g.gather(p, cpu, dests, vlog, 0, big*32); err != nil { // the first sizes the gatherer
				t.Fatal(err)
			}
			if _, _, err := v.place(p, cpu, values, 0); err != nil {
				t.Fatal(err)
			}
			span := make([]byte, count*32)
			read := testing.AllocsPerRun(10, func() {
				for o := 0; o < len(span); o += scanChunk {
					vlog.ReadAt(p, span[o:min(o+scanChunk, len(span))], int64(o))
				}
			})
			gathered := testing.AllocsPerRun(10, func() { g.gather(p, cpu, dests, vlog, 0, big*32) })
			placed := testing.AllocsPerRun(10, func() { v.place(p, cpu, values, 0) })
			if gathered > read || placed != 0 {
				t.Errorf("%d records: a held gather allocated %v times (reading its span %v), a held placement %v", count, gathered, read, placed)
			}
		}
	})
}
