package bench

// Calibration tests assert the paper's comparative shapes — who wins, by
// roughly what factor, in which direction the trend moves — with generous
// tolerances, since absolute virtual-time numbers are a property of the
// simulator, not of the authors' testbed. EXPERIMENTS.md records the exact
// paper-vs-measured values.

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kvcsd/internal/golden"
)

// checkGolden is the model gate: the figure a shape test just ran, rendered
// as its trajectory, must equal testdata/bench-baseline/BENCH_<fig>.json byte
// for byte (`go test ./internal/bench/ -update` rewrites the files). The
// goldens are therefore at the scale the shape tests run — calScale, except
// where a test says otherwise — which for 7a, array, failover, fairness,
// scrub, compactsplit and stages is what kvcsd-bench -json-dir writes at its
// defaults (array with -devices 4).
func checkGolden(t *testing.T, s Scale, tab *Table) {
	t.Helper()
	b, err := TrajectoryFromTable(s, tab).Encode()
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("..", "..", "testdata", "bench-baseline", TrajectoryFileName(tab.Fig)), b)
}

// calScale trims sweeps so the whole calibration suite stays fast.
func calScale() Scale {
	s := DefaultScale()
	s.Threads = []int{2, 32}
	s.Fig10Queries = []int{256, 2048}
	s.VPICParticlesPerFile = 8192
	s.Selectivities = []float64{0.001, 0.01, 0.20}
	return s
}

func TestCalibrationFig7Shape(t *testing.T) {
	s := DefaultScale() // the whole thread sweep: the headline figure is pinned in full
	a, b, err := Fig7(s)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		a.Print(os.Stderr)
		b.Print(os.Stderr)
	}
	checkGolden(t, s, a)
	checkGolden(t, s, b)
	const at2, at32 = 1, 5 // rows of the 1, 2, 4, 8, 16, 32 sweep
	// KV-CSD wins at every core count (paper: 7.9x at 2 cores, 4.2x at 32).
	sp2 := a.Float(at2, "speedup")
	sp32 := a.Float(at32, "speedup")
	if sp2 < 3 || sp2 > 40 {
		t.Errorf("fig7a speedup @2 cores = %.1fx, expected roughly 4-20x", sp2)
	}
	if sp32 < 2 || sp32 > 25 {
		t.Errorf("fig7a speedup @32 cores = %.1fx, expected roughly 2-15x", sp32)
	}
	// RocksDB improves with cores; KV-CSD barely changes (peaks early).
	if r2, r32 := a.Float(at2, "rocksdb_write_s"), a.Float(at32, "rocksdb_write_s"); r32 >= r2 {
		t.Errorf("rocksdb did not improve with cores: %.4fs -> %.4fs", r2, r32)
	}
	k2, k32 := a.Float(at2, "kvcsd_write_s"), a.Float(at32, "kvcsd_write_s")
	if k32 < k2*0.5 || k32 > k2*2 {
		t.Errorf("kvcsd write time should be core-insensitive: %.4fs vs %.4fs", k2, k32)
	}
}

func TestCalibrationFig8Shape(t *testing.T) {
	s := calScale()
	s.Fig8ValueSizes = []int{32, 4096}
	tb, err := Fig8(s)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		tb.Print(os.Stderr)
	}
	checkGolden(t, s, tb)
	// KV-CSD wins at every value size, by a growing factor as values grow
	// (paper: ~10x at 4 KiB), and 2 host cores suffice for KV-CSD.
	small := tb.Float(0, "speedup32")
	large := tb.Float(1, "speedup32")
	if small < 2 {
		t.Errorf("fig8 speedup at 32B = %.1fx, want >= 2x", small)
	}
	if large < small {
		t.Errorf("fig8 speedup should grow with value size: %.1fx -> %.1fx", small, large)
	}
	k32 := tb.Float(1, "kvcsd32_s")
	k2 := tb.Float(1, "kvcsd2_s")
	if k2 > k32*1.5 {
		t.Errorf("kvcsd needs only ~2 host cores: 2-core %.4fs vs 32-core %.4fs", k2, k32)
	}
}

func TestCalibrationFig9Shape(t *testing.T) {
	t.Parallel() // the package's longest test; TestCompactSplitSeedSweep runs beside it
	s := calScale()
	s.Threads = []int{4, 32}
	tb, err := Fig9(s)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		tb.Print(os.Stderr)
	}
	checkGolden(t, s, tb)
	last := len(tb.Rows) - 1
	vsAuto := tb.Float(last, "vs_auto")
	vsDefer := tb.Float(last, "vs_defer")
	vsNone := tb.Float(last, "vs_none")
	// Paper at 32 keyspaces: 7.8x / 6.1x / 2.9x vs auto / deferred / none.
	if vsAuto < 1.5 {
		t.Errorf("fig9 vs auto = %.1fx, want >= 1.5x", vsAuto)
	}
	if vsNone < 1.2 {
		t.Errorf("fig9 vs none = %.1fx, want >= 1.2x", vsNone)
	}
	// Mode ordering: disabled is the fastest RocksDB mode.
	rAuto := tb.Float(last, "rocks_auto_s")
	rNone := tb.Float(last, "rocks_none_s")
	if rNone > rAuto {
		t.Errorf("rocksdb 'none' (%.4fs) should not be slower than 'auto' (%.4fs)", rNone, rAuto)
	}
	_ = vsDefer
}

func TestCalibrationFig10Shape(t *testing.T) {
	s := calScale()
	a, b, err := Fig10(s)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		a.Print(os.Stderr)
		b.Print(os.Stderr)
	}
	checkGolden(t, s, a)
	checkGolden(t, s, b)
	// Both engines answer random GETs fast; the gap is small (paper: KV-CSD
	// up to 1.3x faster, narrowing as RocksDB's client-side caching warms).
	first := a.Float(0, "speedup")
	last := a.Float(len(a.Rows)-1, "speedup")
	if first < 0.4 || first > 3 {
		t.Errorf("fig10 first-round speedup = %.1fx, expected small factor", first)
	}
	if last > first+0.3 {
		t.Errorf("rocksdb should catch up with caching: speedup went %.1fx -> %.1fx", first, last)
	}
	// Read inflation: both read far more media bytes than the app asked for;
	// RocksDB's effective inflation falls as its caches absorb re-reads.
	rkFirst := b.Float(1, "read_inflation")
	rkLast := b.Float(len(b.Rows)-1, "read_inflation")
	if rkFirst <= 10 {
		t.Errorf("rocksdb read inflation = %.1f, expected substantial (blocks per small value)", rkFirst)
	}
	if rkLast >= rkFirst {
		t.Errorf("rocksdb inflation should fall with caching: %.1f -> %.1f", rkFirst, rkLast)
	}
}

func TestCalibrationFig11Fig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro benchmark is slow")
	}
	s := calScale()
	res, err := RunMacro(s)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		res.Fig11.Print(os.Stderr)
		res.Fig12.Print(os.Stderr)
	}
	checkGolden(t, s, res.Fig11)
	checkGolden(t, s, res.Fig12)
	checkGolden(t, s, res.SoCLedger)
	// Fig 11: effective write-time speedup (paper: ~10.6x); KV-CSD's
	// compaction+indexing run in the async device window.
	eff := float64(res.RocksTotal) / float64(res.KVCSDInsert)
	if eff < 3 || eff > 60 {
		t.Errorf("fig11 effective write speedup = %.1fx, expected roughly 5-30x", eff)
	}
	if res.KVCSDCompact <= 0 || res.KVCSDIndex <= 0 {
		t.Error("device-side compaction/index phases not recorded")
	}
	// Fig 12: KV-CSD wins at high selectivity; its advantage shrinks as
	// selectivity grows (paper: 7.4x at 0.1% -> 1.3x at 20%).
	mid := res.Fig12.Float(1, "speedup")  // 1%
	high := res.Fig12.Float(2, "speedup") // 20%
	if mid < 1.2 {
		t.Errorf("fig12 speedup at 1%% = %.1fx, want KV-CSD ahead", mid)
	}
	if high >= mid {
		t.Errorf("fig12 speedup should shrink at 20%% selectivity: %.1fx -> %.1fx", mid, high)
	}
	// Result counts agreed between engines (checked inside RunMacro; the
	// table records mismatches as notes).
	for _, n := range res.Fig12.Notes {
		if len(n) >= 8 && n[:8] == "MISMATCH" {
			t.Errorf("engines disagreed on query results: %s", n)
		}
	}
}

func TestCalibrationAblations(t *testing.T) {
	s := calScale()
	// Each ablation table is checked against its golden, then for its shape
	// (nil: the golden is the whole check).
	for _, ab := range []struct {
		run   func(Scale) (*Table, error)
		shape func(t *testing.T, tb *Table)
	}{
		{AblationBulkPut, func(t *testing.T, tb *Table) {
			// Paper: bulk puts ~7x faster than regular puts.
			if sp := tb.Float(1, "speedup"); sp < 2 {
				t.Errorf("bulk put speedup = %.1fx, want >= 2x", sp)
			}
		}},
		{AblationStriping, func(t *testing.T, tb *Table) {
			// Wider stripes should not be slower than width 1.
			if w1, w8 := tb.Float(0, "write_s"), tb.Float(3, "write_s"); w8 > w1*1.1 {
				t.Errorf("striping should help or be neutral: width1=%.4fs width8=%.4fs", w1, w8)
			}
		}},
		{AblationDeferredCompaction, func(t *testing.T, tb *Table) {
			if hostVis := tb.Float(0, "host_visible_s"); hostVis >= tb.Float(1, "host_visible_s") {
				t.Error("deferred compaction should reduce host-visible time")
			}
		}},
		{AblationSortBudget, func(t *testing.T, tb *Table) {
			// More DRAM budget should not make device compaction slower.
			if tight, roomy := tb.Float(0, "compact_s"), tb.Float(3, "compact_s"); roomy > tight*1.1 {
				t.Errorf("bigger sort budget slower: %.4fs -> %.4fs", tight, roomy)
			}
		}},
		{AblationIngestBuffer, nil},
		{AblationKVSeparation, nil},
		{AblationRemoteAccess, func(t *testing.T, tb *Table) {
			// The fabric adds per-command latency: remote inserts are slower,
			// but not catastrophically (data still moves once, queries return
			// results only).
			local, fabric := tb.Float(0, "insert_s"), tb.Float(1, "insert_s")
			if fabric <= local {
				t.Error("NVMeOF attachment should cost more than local PCIe")
			}
			if fabric > local*20 {
				t.Errorf("NVMeOF overhead implausibly high: %.4fs vs %.4fs", fabric, local)
			}
		}},
		{AblationConsolidatedIndexing, func(t *testing.T, tb *Table) {
			// The point of consolidation: fewer media reads (no per-index
			// keyspace read-back).
			if sepReads, conReads := tb.Rows[0][3], tb.Rows[1][3]; sepReads == "" || conReads == "" {
				t.Error("consolidated ablation rows empty")
			}
		}},
	} {
		tb, err := ab.run(s)
		if err != nil {
			t.Fatal(err)
		}
		if testing.Verbose() {
			tb.Print(os.Stderr)
		}
		checkGolden(t, s, tb)
		if ab.shape != nil {
			ab.shape(t, tb)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) < 4 {
		t.Fatalf("table 1 rows: %d", len(tb.Rows))
	}
	if testing.Verbose() {
		tb.Print(os.Stderr)
	}
}

func TestScaleMultiply(t *testing.T) {
	s := DefaultScale()
	m := s.Multiply(4)
	if m.Fig7TotalKeys != s.Fig7TotalKeys*4 || m.VPICParticlesPerFile != s.VPICParticlesPerFile*4 {
		t.Fatal("multiply did not scale")
	}
	if same := s.Multiply(1); same.Fig7TotalKeys != s.Fig7TotalKeys {
		t.Fatal("multiply(1) changed scale")
	}
}

func TestTableHelpers(t *testing.T) {
	tb := &Table{Title: "t", Header: []string{"a", "b"}}
	tb.Add("1.5x", "2.25")
	if tb.Float(0, "a") != 1.5 || tb.Float(0, "b") != 2.25 {
		t.Fatalf("float parsing: %v %v", tb.Float(0, "a"), tb.Float(0, "b"))
	}
	if tb.Float(0, "missing") != 0 || tb.Float(5, "a") != 0 {
		t.Fatal("out-of-range lookups should be 0")
	}
}

// TestFig10SeedSweep runs Fig 10's KV-CSD side at calScale over seeds 1-5:
// in each round, every seed's KV-CSD p99 must lie within 10 % of the
// median over the seeds. Which channels a seed's stripes start on is its
// own; where the stripes go after that must not make a seed's tail.
func TestFig10SeedSweep(t *testing.T) {
	s := calScale()
	seeds := []int64{1, 2, 3, 4, 5}
	p99 := make([][]float64, len(s.Fig10Queries))
	for _, seed := range seeds {
		s.Seed = seed
		rounds, err := fig10KVCSD(&Table{}, s)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range s.Fig10Queries {
			p99[i] = append(p99[i], float64(rounds[q].p99)/1e3)
		}
	}
	for i, q := range s.Fig10Queries {
		med := median(p99[i])
		t.Logf("%d queries: KV-CSD p99 %.1f us over seeds %v", q, p99[i], seeds)
		for j, v := range p99[i] {
			if v < med*0.9 || v > med*1.1 {
				t.Errorf("%d queries, seed %d: KV-CSD p99 %.1f us, median over seeds %.1f us (all: %.1f)",
					q, seeds[j], v, med, p99[i])
			}
		}
	}
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
