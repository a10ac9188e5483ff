package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"kvcsd/internal/compaction"
	"kvcsd/internal/host"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
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
	pidx, sorted []byte
	live         int64
	moved        uint64 // the job's BytesMoved
	fed          int64  // encoded KLOG bytes: one key-sort pass
	clusters     int64  // clusters the job created
	tempZones    int    // most ZoneTemp zones owned at once, sampled
	// mergeCores and valueCores are the most SoC cores held at once, sampled,
	// in the merge stage (the key stream, then the destination pass) and in
	// the value stage.
	mergeCores, valueCores int
	destNs, valueNs        int64 // the dest_pass and value_pass ledger lines
	passNs                 int64 // what one pass over the live pairs is charged
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
			switch held := fx.soc.CPU().InUse(); ks.progress.Stage {
			case compaction.StageMerge:
				r.mergeCores = max(r.mergeCores, held)
			case compaction.StageValues:
				r.valueCores = max(r.valueCores, held)
			}
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
// one bucket of the sort budget keeps its value sort in SoC DRAM: the
// destination bucket held, the values placed straight into their span. It
// creates no cluster beyond PIDX and SORTED_VALUES (its key sort fits one
// batch too), owns no ZoneTemp zone at any instant, and appends nothing but
// those two clusters' bytes. Its PIDX and SORTED_VALUES are byte for byte
// those of the same compaction with every bucket spilled. The placed value
// sort is one pass, charged one compare unit per live pair in all; the
// spilled one is two, each charged exactly one unit per live pair over its
// buckets.
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
	if held.destNs+held.valueNs != held.passNs {
		t.Errorf("held: dest_pass %d ns + value_pass %d ns, want one pass of %d ns in all (%d live pairs)", held.destNs, held.valueNs, held.passNs, held.live)
	}
	if spilled.destNs != spilled.passNs || spilled.valueNs != spilled.passNs {
		t.Errorf("spilled: dest_pass %d ns, value_pass %d ns, want one pass of %d ns each (%d live pairs)", spilled.destNs, spilled.valueNs, spilled.passNs, spilled.live)
	}
}

// TestSpilledBucketPassesSpreadOverCores: a spilled value sort charges each
// bucket of its destination and value passes as one share per core a batch
// sort takes — three of the SoC's four — while the placed pass, whose values
// fit the budget, charges one core and the value stage none. After the key
// stream, whose merge charges one core, nothing else charges the SoC in
// these stages. Either way each pass costs exactly one charge of its live
// pairs.
func TestSpilledBucketPassesSpreadOverCores(t *testing.T) {
	const n, vsize = 3000, 32
	shares := host.DefaultSoCConfig().Cores - 1
	for _, tc := range []struct {
		name                   string
		budget                 int
		mergeCores, valueCores int
	}{
		{"placed", 8 << 20, 1, 0},
		{"spilled", 16 << 10, shares, shares}, // 7 buckets per pass
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := runValueSort(t, tc.budget, n, vsize)
			if r.mergeCores != tc.mergeCores || r.valueCores != tc.valueCores {
				t.Errorf("held up to %d cores in the merge stage and %d in the value stage, want %d and %d",
					r.mergeCores, r.valueCores, tc.mergeCores, tc.valueCores)
			}
			valueNs := r.passNs
			if tc.valueCores == 0 {
				valueNs = 0
			}
			if r.destNs != r.passNs || r.valueNs != valueNs {
				t.Errorf("dest_pass %d ns, value_pass %d ns, want %d and %d", r.destNs, r.valueNs, r.passNs, valueNs)
			}
		})
	}
}

// TestValueSortSpillsPastBudget: a one-bucket writer — the destination
// pass's — holds its records in SoC DRAM, counted in engine/dram, until the
// next record would pass the sort budget. Then it opens the bucket's cluster,
// appends exactly what it held — which leaves the gauge — and goes on in
// bursts; the spilled bucket gathers what the held one does. At engine level,
// a compaction whose destination bucket spills that way, one whose live
// values pass the budget so that its value buckets spill, and one whose
// values fit the budget but whose value records would not — placed, spilling
// nothing — write the PIDX and SORTED_VALUES of the compaction that holds
// everything, and append each spilled bucket's bytes once. A value sort that
// spills its value buckets is charged two passes, a placed one one.
func TestValueSortSpillsPastBudget(t *testing.T) {
	t.Run("writer", func(t *testing.T) {
		const budget, count, vsize = 4096, 300, 4
		cfg := DefaultConfig()
		cfg.SortBudgetBytes = budget
		fx := newEngineFixture(cfg)
		fx.run(t, func(p *sim.Proc) {
			ents := shuffledDests(count, vsize, 9)
			enc := encodeDests(ents)
			recSize := destEntrySize
			gauge := fx.eng.DRAMGauge()
			var moved uint64
			w := fx.eng.newBucketWriter(count*vsize+1, &moved)
			for i, de := range ents {
				if err := w.add(p, de.vlogOff, destCodec{}.Encode(nil, de)); err != nil {
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
			vlog := fx.eng.zm.NewCluster(ZoneVLOG)
			if err := vlog.Append(p, testVlog(count*vsize)); err != nil {
				t.Fatal(err)
			}
			cpu := passOn(fx.soc.Account(""), 1)
			var fromHeld, fromSpilled valueGatherer
			want, err := fromHeld.gather(p, cpu, bucket{buf: enc}, vlog, 0, w.width)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fromSpilled.gather(p, cpu, w.buckets()[0], vlog, 0, w.width)
			if err != nil || len(got) != len(want) {
				t.Fatalf("spilled bucket gathered %d entries (err %v), want %d", len(got), err, len(want))
			}
			for i := range got {
				if got[i] != want[i] || !bytes.Equal(fromSpilled.value(got[i]), fromHeld.value(want[i])) {
					t.Fatalf("entry %d: spilled bucket gathered %+v, want %+v", i, got[i], want[i])
				}
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
		spilled       int  // bytes per live pair of the buckets that spill
		placed        bool // the live values fit the budget
	}{
		// 4-byte values: a 14 KB VLOG, 60 KB of destination entries, 12 KB
		// of live values.
		{"destination bucket", 4, 56 << 10, destEntrySize, true},
		// 32-byte values: a 110 KB VLOG, 96 KB of live values in 132 KB of
		// value records. Past 64 KiB both writers take two buckets.
		{"value bucket", 32, 64 << 10, destEntrySize + 12 + 32, false},
		{"values fit, records do not", 32, 120 << 10, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 3000
			held := runValueSort(t, 8<<20, n, tc.vsize)
			run := runValueSort(t, tc.budget, n, tc.vsize)
			if !bytes.Equal(held.pidx, run.pidx) || !bytes.Equal(held.sorted, run.sorted) {
				t.Fatalf("budget %d: PIDX or SORTED_VALUES differ from the held run's", tc.budget)
			}
			// The key sort passes the budget too, so the job also appends whole
			// passes over the KLOG bytes; the buckets add the spilled ones'
			// bytes and nothing of a held one or of placed values.
			buckets := uint64(run.live) * uint64(tc.spilled)
			extra := int64(run.moved) - int64(len(run.pidx)+len(run.sorted)) - int64(buckets)
			if extra <= 0 || extra%run.fed != 0 {
				t.Fatalf("budget %d: the job appended %d bytes: PIDX + SORTED_VALUES %d, %d spilled, and %d more — not whole key-sort passes of %d",
					tc.budget, run.moved, len(run.pidx)+len(run.sorted), buckets, extra, run.fed)
			}
			valueNs := run.passNs
			if tc.placed {
				valueNs = 0
			}
			if run.destNs != run.passNs || run.valueNs != valueNs {
				t.Fatalf("budget %d: dest_pass %d ns, value_pass %d ns; want %d and %d", tc.budget, run.destNs, run.valueNs, run.passNs, valueNs)
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
// and in the separated one with its value sort held in DRAM, its destination
// bucket spilled past the budget, and spread over many buckets — and the
// recovered engine has the keyspace COMPACTED, reads back every pair, and
// finds no zone left to sweep and no ZoneTemp zone owned. A cut during the
// value pass of placed values loses that pass with its DRAM: recovery gives back the logs with every synced pair, sealed
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
			// Nothing but the placed values' span is in DRAM now.
			if held, want := fx.eng.DRAMGauge().Value(), float64(len(want)*vsize); held != want {
				t.Fatalf("engine/dram reads %v at the cut, want the span's %v bytes", held, want)
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
// records cost at most four allocations more, outside -race — and gathering
// it straight from DRAM allocates no more than reading its VLOG span does
// once the gatherer has grown to it. Placing the gathered values allocates
// one span and one bitmap per compaction, never one per record.
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
		cpu := passOn(fx.soc.Account(""), 1)
		var g valueGatherer
		for _, count := range []int{big, small} {
			dests := bucket{buf: encodeDests(shuffledDests(count, 32, int64(count)))}
			ents, err := g.gather(p, cpu, dests, vlog, 0, big*32) // the first sizes the gatherer
			if err != nil {
				t.Fatal(err)
			}
			span := make([]byte, count*32)
			read := testing.AllocsPerRun(10, func() {
				for o := 0; o < len(span); o += scanChunk {
					vlog.ReadAt(p, span[o:min(o+scanChunk, len(span))], int64(o))
				}
			})
			gathered := testing.AllocsPerRun(10, func() { ents, _ = g.gather(p, cpu, dests, vlog, 0, big*32) })
			// A compaction opens a fresh placer at its value bytes.
			placed := testing.AllocsPerRun(10, func() {
				var v valuePlacer
				v.open(0, count*32)
				for _, de := range ents {
					if err := v.put(de.destOff, g.value(de)); err != nil {
						t.Fatal(err)
					}
				}
				if _, n, err := v.placed(); err != nil || n != count {
					t.Fatalf("%d records placed, err %v", n, err)
				}
			})
			if gathered > read || placed != 2 {
				t.Errorf("%d records: a held gather allocated %v times (reading its span %v), placing its values %v (want 2: span and bitmap)", count, gathered, read, placed)
			}
		}
	})
}

// opsRun is what compacting a list of operations under one sort budget left.
type opsRun struct {
	pidx, sorted, sidx []byte // sidx: the declared index's, when one was
	live               int64
	destNs, valueNs    int64 // the dest_pass and value_pass ledger lines
	passNs             int64 // what one pass over the live pairs is charged
}

// compactOps loads ops — puts and deletes — into a new keyspace in batches
// of 256, compacts it under a sort budget with specs declared, reads every
// key of ops back as the last operation on it left it, and checks that
// engine/dram is back to 0.
func compactOps(t *testing.T, budget int, ops []nvme.KVPair, specs []nvme.SecondaryIndexSpec) opsRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SortBudgetBytes = budget
	fx := newEngineFixture(cfg)
	var r opsRun
	fx.run(t, func(p *sim.Proc) {
		if err := fx.eng.CreateKeyspace(p, "ks"); err != nil {
			t.Fatal(err)
		}
		want := map[string][]byte{}
		for i := 0; i < len(ops); i += 256 {
			batch := ops[i:min(i+256, len(ops))]
			if err := fx.eng.BulkOps(p, "ks", batch); err != nil {
				t.Fatal(err)
			}
			for _, op := range batch {
				want[string(op.Key)] = op.Value
				if op.Tombstone {
					want[string(op.Key)] = nil
				}
			}
		}
		led0 := fx.eng.SoCLedger()
		if err := fx.eng.CompactWithIndexes(p, "ks", specs); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.WaitCompacted(p, "ks"); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.WaitBackgroundIdle(p); err != nil {
			t.Fatal(err)
		}
		led := fx.eng.SoCLedger()
		ks, _ := fx.eng.Keyspace("ks")
		r.pidx, r.sorted, r.live = readCluster(t, p, ks.pidx), readCluster(t, p, ks.sorted), ks.count
		for _, s := range specs {
			r.sidx = readCluster(t, p, ks.secondary[s.Name].cluster)
		}
		r.destNs = led[phaseDestPass].Ns - led0[phaseDestPass].Ns
		r.valueNs = led[phaseValuePass].Ns - led0[phaseValuePass].Ns
		cpu := fx.soc.Config()
		r.passNs = int64(float64(time.Duration(r.live)*cpu.CompareCost) / cpu.Speed)
		for k, v := range want {
			got, ok, err := fx.eng.Get(p, "ks", []byte(k))
			if err != nil || ok != (v != nil) || !bytes.Equal(got, v) {
				t.Fatalf("budget %d: get %s: %x, found %v, err %v; want %x", budget, k, got, ok, err, v)
			}
		}
		if v := fx.eng.DRAMGauge().Value(); v != 0 {
			t.Errorf("budget %d: engine/dram reads %v after the compaction, want 0", budget, v)
		}
	})
	return r
}

// TestPlacedValueSort: a value sort whose live values fit the sort budget
// places them in one pass — charged one compare unit per live pair in all —
// and writes what the two-pass sort of a budget they pass writes, byte for
// byte: with every key deleted, so that nothing is live and the span is
// empty; with duplicates and tombstones, so that only the newest put of a
// key lands; and with an index declared, extracted from the span.
func TestPlacedValueSort(t *testing.T) {
	const n = 2000
	put := func(i, version int) nvme.KVPair {
		return nvme.KVPair{Key: tkey(i), Value: tvalue(i*10+version, float32((i*7+version)%100))}
	}
	del := func(i int) nvme.KVPair { return nvme.KVPair{Key: tkey(i), Tombstone: true} }
	var allDeleted, mixed []nvme.KVPair
	for i := 0; i < n; i++ {
		allDeleted = append(allDeleted, put(i, 0))
		mixed = append(mixed, put(i, 0))
	}
	for i := 0; i < n; i++ {
		allDeleted = append(allDeleted, del(i))
		switch {
		case i%5 == 0:
			mixed = append(mixed, del(i))
		case i%3 == 0:
			mixed = append(mixed, put(i, 1), put(i, 2))
		}
		if i%10 == 0 {
			mixed = append(mixed, put(i, 3)) // a put after its delete
		}
	}
	for _, tc := range []struct {
		name  string
		ops   []nvme.KVPair
		specs []nvme.SecondaryIndexSpec
	}{
		{"every key deleted", allDeleted, nil},
		{"duplicates and tombstones", mixed, nil},
		{"joined index", mixed, []nvme.SecondaryIndexSpec{energySpec("e")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			placed := compactOps(t, 8<<20, tc.ops, tc.specs)
			// 16 KiB: the live values pass the budget, and the value buckets
			// spill.
			spilled := compactOps(t, 16<<10, tc.ops, tc.specs)
			if tc.name == "every key deleted" && (placed.live != 0 || len(placed.sorted) != 0) {
				t.Fatalf("%d live pairs, %d bytes of SORTED_VALUES; want none", placed.live, len(placed.sorted))
			}
			if !bytes.Equal(placed.pidx, spilled.pidx) || !bytes.Equal(placed.sorted, spilled.sorted) || !bytes.Equal(placed.sidx, spilled.sidx) {
				t.Errorf("placed and spilled value sorts wrote different PIDX (%d / %d bytes), SORTED_VALUES (%d / %d) or SIDX (%d / %d)",
					len(placed.pidx), len(spilled.pidx), len(placed.sorted), len(spilled.sorted), len(placed.sidx), len(spilled.sidx))
			}
			if len(tc.specs) > 0 && len(placed.sidx) == 0 {
				t.Errorf("the declared index wrote no SIDX")
			}
			if placed.destNs+placed.valueNs != placed.passNs {
				t.Errorf("dest_pass %d ns + value_pass %d ns, want one pass of %d ns (%d live pairs)", placed.destNs, placed.valueNs, placed.passNs, placed.live)
			}
		})
	}
}

// TestPlacedGatherFaultReleasesSpan: a zone-read fault on the VLOG in the
// middle of a placed destination pass — armed once the first of its three
// destination buckets is gathered, while the read-ahead still has VLOG
// chunks to read — reaches WaitCompacted. The span leaves engine/dram, which
// reads 0 once the job has ended, and no ZoneTemp, PIDX or SORTED_VALUES zone
// stays owned; the keyspace keeps its logs.
func TestPlacedGatherFaultReleasesSpan(t *testing.T) {
	const n, vsize, versions = 4000, 256, 4
	cfg := DefaultConfig()
	cfg.SortBudgetBytes = 3 << 19 // 1.5 MiB: the 1 MiB of live values fit, the 4 MiB VLOG takes three buckets
	fx := newEngineFixture(cfg)
	fx.run(t, func(p *sim.Proc) {
		if err := fx.eng.CreateKeyspace(p, "ks"); err != nil {
			t.Fatal(err)
		}
		var pairs []nvme.KVPair
		for v := 0; v < versions; v++ {
			for i := 0; i < n; i++ {
				pairs = append(pairs, nvme.KVPair{Key: tkey(i), Value: bytes.Repeat([]byte{byte(v)}, vsize)})
				if len(pairs) == 256 {
					if err := fx.eng.BulkOps(p, "ks", pairs); err != nil {
						t.Fatal(err)
					}
					pairs = pairs[:0]
				}
			}
		}
		ks, _ := fx.eng.Keyspace("ks")
		if err := fx.eng.Compact(p, "ks"); err != nil {
			t.Fatal(err)
		}
		armed := false
		sampleWhile(p, func() {
			if !armed && fx.eng.SoCLedger()[phaseDestPass].Ns > 0 {
				for _, z := range ks.vlog.Zones() {
					fx.dev.InjectFault("zone-read", int64(z), 1)
				}
				armed = true
			}
		}, func() {
			if err := fx.eng.WaitCompacted(p, "ks"); !errors.Is(err, ssd.ErrInjectedFault) {
				t.Fatalf("WaitCompacted: %v, want the injected fault", err)
			}
		})
		_ = fx.eng.WaitBackgroundIdle(p)
		onePass := int64(float64(time.Duration(n)*fx.soc.Config().CompareCost) / fx.soc.Config().Speed)
		if d := fx.eng.SoCLedger()[phaseDestPass].Ns; d == 0 || d >= onePass {
			t.Errorf("dest_pass charged %d ns of a %d ns pass: the fault did not land mid-gather", d, onePass)
		}
		if v := fx.eng.DRAMGauge().Value(); v != 0 {
			t.Errorf("engine/dram reads %v after the failed job, want 0", v)
		}
		used := fx.eng.zm.UsedByType()
		for _, typ := range []ZoneType{ZoneTemp, ZonePIDX, ZoneSortedValues} {
			if used[typ] != 0 {
				t.Errorf("%d %v zones still owned after the failed compaction", used[typ], typ)
			}
		}
		if used[ZoneKLOG] == 0 || used[ZoneVLOG] == 0 {
			t.Errorf("the keyspace's logs were released: %v", used)
		}
		checkAccounting(t, fx.eng.zm)
	})
}
