package core

import (
	"testing"

	"kvcsd/internal/compaction"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
)

// checkLedgerSums requires the published phase counters to sum to
// engine/soc_busy_ns exactly and every phase in want to have been charged.
func checkLedgerSums(t *testing.T, fx *engineFixture, reg *obs.Registry, want ...socPhase) {
	t.Helper()
	var sum int64
	for _, name := range socPhaseNames {
		c := reg.LookupCounter("engine/soc_ns/" + name)
		if c == nil {
			t.Fatalf("engine/soc_ns/%s not published", name)
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
// a consolidated and a separate index build, every query verb and a media
// scrub — and requires the per-phase ledger to sum to the SoC's busy time.
func TestSoCLedgerSumsToBusy(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.Compaction = compaction.Config{Policy: compaction.PolicyCollaborative, PipelineWidth: 4}
	fx := newSplitFixture(cfg, nil)
	reg := obs.NewRegistry(fx.env)
	fx.eng.SetObs(nil, reg)
	startHostAssist(fx, false)
	energy := func(i int) float32 { return float32(i % 97) }
	spec := SecondarySpec{Name: "energy", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
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
		if err := fx.eng.CompactWithIndexes(p, "ks2", []SecondarySpec{spec}); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.WaitIndexBuilt(p, "ks2", "energy"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fx.eng.Get(p, "ks", tkey(7)); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.eng.Exist(p, "ks", tkey(8)); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.eng.RangePrimary(p, "ks", tkey(10), tkey(90), 0, func(Pair) bool { return true }); err != nil {
			t.Fatal(err)
		}
		lo := keyenc.PutFloat32(90)
		if _, err := fx.eng.RangeSecondary(p, "ks2", "energy", lo, nil, 0, func(Pair) bool { return true }); err != nil {
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
