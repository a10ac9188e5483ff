package core

import (
	"sort"
	"testing"
	"time"

	"kvcsd/internal/compaction"
	"kvcsd/internal/host"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
)

// checkLedgerSums requires the published phase counters to sum to
// engine/soc_busy_ns exactly, each phase's wait counter to be published
// beside it, and every phase in want to have been charged.
func checkLedgerSums(t *testing.T, fx *engineFixture, reg *obs.Registry, want ...socPhase) {
	t.Helper()
	var sum int64
	for _, name := range socPhaseNames {
		c := reg.LookupCounter("engine/soc_ns/" + name)
		if c == nil || reg.LookupCounter("engine/soc_wait_ns/"+name) == nil {
			t.Fatalf("engine/soc_ns/%s or its wait not published", name)
		}
		sum += c.Value()
	}
	if busy := reg.LookupCounter("engine/soc_busy_ns").Value(); sum != busy || busy == 0 {
		t.Fatalf("ledger sums to %d ns, engine/soc_busy_ns is %d", sum, busy)
	}
	ledger := fx.eng.SoCLedger()
	for _, ph := range want {
		if ledger[ph].Ns == 0 {
			t.Errorf("phase %s charged nothing: %+v", socPhaseNames[ph], ledger)
		}
	}
}

// TestSoCLedgerSumsToBusy drives every kind of SoC work the engine does —
// ingest, a collaborative compaction whose host share lands back in SoC DRAM,
// a separate index build and a consolidated one of three indexes that pack in
// parallel, every query verb and a media scrub — and requires the per-phase
// ledger to sum to the SoC's busy time.
func TestSoCLedgerSumsToBusy(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.Compaction = compaction.Config{PipelineWidth: 4}
	fx := newSplitFixture(cfg, nil)
	reg := obs.NewRegistry(fx.env)
	fx.eng.SetObs(nil, reg)
	startHostAssist(fx, false)
	energy := func(i int) float32 { return float32(i % 97) }
	spec := nvme.SecondaryIndexSpec{Name: "energy", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
	fx.run(t, func(p *sim.Proc) {
		defer fx.eng.CloseAssist()
		const n = 4000
		ingestN(t, p, fx, "ks", n, energy)
		compactAndWait(t, p, fx, "ks")
		if pr, _ := fx.eng.Progress("ks"); pr.HostRuns == 0 {
			t.Fatal("no host share: the assist landing is not exercised")
		}
		if err := fx.eng.BuildSecondaryIndex(p, "ks", spec); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.WaitIndexBuilt(p, "ks", "energy"); err != nil {
			t.Fatal(err)
		}
		ingestN(t, p, fx, "ks2", 1000, energy)
		if err := fx.eng.CompactWithIndexes(p, "ks2", variedSpecs); err != nil {
			t.Fatal(err)
		}
		for _, s := range variedSpecs {
			if err := fx.eng.WaitIndexBuilt(p, "ks2", s.Name); err != nil {
				t.Fatal(err)
			}
		}
		if got := fx.eng.sidxJoined.Value(); got != 3 {
			t.Fatalf("%d builds joined the compaction of ks2, want 3", got)
		}
		if _, _, err := fx.eng.Get(p, "ks", tkey(7)); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.eng.Exist(p, "ks", tkey(8)); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.eng.RangePrimary(p, "ks", tkey(10), tkey(90), 0, func(nvme.KVPair) bool { return true }); err != nil {
			t.Fatal(err)
		}
		lo := keyenc.PutFloat32(90)
		if _, err := fx.eng.RangeSecondary(p, "ks2", "e", lo, nil, 0, func(nvme.KVPair) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.eng.MediaScrub(p); err != nil {
			t.Fatal(err)
		}
	})
	checkLedgerSums(t, fx, reg, phaseIngest, phaseQuery, phaseRunKlog, phaseRunSidx, phaseMerge,
		phaseDestPass, phaseValuePass, phaseSidxExtract, phaseScrub, phaseAssistLand)

	// The combined-record ablation forms runs of pairs.
	cfg = smallEngineConfig()
	cfg.DisableKVSeparation = true
	fx = newEngineFixture(cfg)
	reg = obs.NewRegistry(fx.env)
	fx.eng.SetObs(nil, reg)
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 3000, energy)
		compactAndWait(t, p, fx, "ks")
	})
	checkLedgerSums(t, fx, reg, phaseIngest, phaseRunPair, phaseMerge)
}

// TestRangePrimaryChargesEachBlockOnce: a primary scan charges the query
// phase the sketch search (when lo is given) and one block op per PIDX block
// it visits — a window that breaks inside a block does not charge the block
// again, and a limit met on a block's last entry visits no further block.
func TestRangePrimaryChargesEachBlockOnce(t *testing.T) {
	soc := host.DefaultSoCConfig()
	charge := func(d time.Duration) int64 { return int64(time.Duration(float64(d) / soc.Speed)) }
	withRangeKeyspace(t, func(p *sim.Proc, fx *engineFixture, ks *Keyspace, starts []int) {
		blockOf := func(i int) int {
			return sort.Search(len(starts), func(b int) bool { return starts[b] > i }) - 1
		}
		query := fx.eng.cpu[phaseQuery].Ns()
		check := func(name string, lo, hi []byte, limit, blocks int) {
			t.Helper()
			want := int64(blocks) * charge(soc.BlockOpCost)
			if lo != nil {
				want += charge(16 * soc.CompareCost)
			}
			before := query.Value()
			if _, err := fx.eng.RangePrimary(p, "ks", lo, hi, limit, func(nvme.KVPair) bool { return true }); err != nil {
				t.Fatal(err)
			}
			if got := query.Value() - before; got != want {
				t.Fatalf("%s: query phase charged %d ns, want %d (%d blocks)", name, got, want, blocks)
			}
		}
		const perWindow = scanChunk / 32
		b := 3
		check("full scan", nil, nil, 0, len(starts)-1)
		check("window break inside a block", tkey(100), tkey(100+perWindow+50), 0, blockOf(100+perWindow+50)-blockOf(100)+1)
		check("limit on a block's last entry", tkey(starts[b]), nil, starts[b+1]-starts[b], 1)
		check("hi inside the next block", tkey(starts[b]+3), tkey(starts[b+1]+10), 0, 2)
	})
}
