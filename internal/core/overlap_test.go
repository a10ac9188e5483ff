package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"kvcsd/internal/compaction"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
)

// spilledPairs is how many pairs ingestSpilled puts: at smallEngineConfig's
// 32 KiB sort budget their key sort forms runs and both bucket passes spill.
const spilledPairs = 12000

// ingestSpilled puts spilledPairs pairs into keyspace ks.
func ingestSpilled(t testing.TB, p *sim.Proc, fx *engineFixture) {
	ingestN(t, p, fx, "ks", spilledPairs, func(i int) float32 { return float32(i % 1000) })
}

// compactSpilled compacts keyspace ks at pipeline width `width` with
// energySpec("e") declared and returns the virtual time from Compact until
// the index is built.
func compactSpilled(t testing.TB, p *sim.Proc, fx *engineFixture, width int) time.Duration {
	fx.eng.SetCompactionConfig(compaction.Config{PipelineWidth: width})
	t0 := p.Now()
	if err := fx.eng.CompactWithIndexes(p, "ks", []nvme.SecondaryIndexSpec{energySpec("e")}); err != nil {
		t.Fatal(err)
	}
	if err := fx.eng.WaitIndexBuilt(p, "ks", "e"); err != nil {
		t.Fatal(err)
	}
	return time.Duration(p.Now() - t0)
}

// buildSpilled builds energySpec("e") on the compacted keyspace ks by a
// separate read-back, its sort spilled at smallEngineConfig's budget, and
// returns the virtual time from BuildSecondaryIndex until the index is built.
func buildSpilled(t testing.TB, p *sim.Proc, fx *engineFixture) time.Duration {
	t0 := p.Now()
	if err := fx.eng.BuildSecondaryIndex(p, "ks", energySpec("e")); err != nil {
		t.Fatal(err)
	}
	if err := fx.eng.WaitIndexBuilt(p, "ks", "e"); err != nil {
		t.Fatal(err)
	}
	return time.Duration(p.Now() - t0)
}

// TestCompactionOverlapsIO: a spilled, indexed keyspace compacted with every
// stream staged (width 4) writes PIDX, SORTED_VALUES and SIDX byte for byte
// as the sequential path (width 1) does, and is queryable in at most 0.85 of
// its time: the media reads and writes overlap the SoC work.
func TestCompactionOverlapsIO(t *testing.T) {
	var crcs [2]string
	var took [2]time.Duration
	for i, width := range []int{1, 4} {
		fx := newEngineFixture(smallEngineConfig())
		fx.run(t, func(p *sim.Proc) {
			ingestSpilled(t, p, fx)
			took[i] = compactSpilled(t, p, fx, width)
			ks, _ := fx.eng.Keyspace("ks")
			if ks.progress.DeviceRuns < 2 {
				t.Fatalf("width %d: the key sort's final merge read %d runs, want a spilled sort", width, ks.progress.DeviceRuns)
			}
			for _, c := range []*Cluster{ks.pidx, ks.sorted, ks.secondary["e"].cluster} {
				data := make([]byte, c.Len())
				if err := c.ReadAt(p, data, 0); err != nil {
					t.Fatal(err)
				}
				crcs[i] += fmt.Sprintf("%08x/%d ", crc32.Checksum(data, castagnoli), len(data))
			}
			if n := fx.eng.zm.UsedByType()[ZoneTemp]; n != 0 {
				t.Errorf("width %d: %d ZoneTemp zones owned after the compaction", width, n)
			}
		})
	}
	if crcs[0] != crcs[1] {
		t.Fatalf("PIDX, SORTED_VALUES, SIDX: width 1 %s, width 4 %s", crcs[0], crcs[1])
	}
	t.Logf("queryable after %v at width 1, %v at width 4", took[0], took[1])
	if float64(took[1]) > 0.85*float64(took[0]) {
		t.Fatalf("width 4 queryable after %v, more than 0.85 of width 1's %v", took[1], took[0])
	}
}

// TestStagedAppendFaultReleasesZones: a zone-write fault in the middle of a
// staged value pass — armed as the pass starts, so the first append of
// SORTED_VALUES' write stage fails while the pass still has 1.2 MiB of
// values to stream — reaches WaitCompacted. Every read and write stage proc
// is joined (the simulation panics on a proc left blocked), no PIDX,
// SORTED_VALUES or ZoneTemp zone stays owned, and neither the pipeline nor
// engine/dram counts a chunk. The keyspace keeps its logs.
func TestStagedAppendFaultReleasesZones(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 40000, func(i int) float32 { return float32(i % 1000) })
		if err := fx.eng.Compact(p, "ks"); err != nil {
			t.Fatal(err)
		}
		waitValuePass(t, p, fx, "ks")
		fx.dev.InjectFault("zone-write", -1, 1)
		if err := fx.eng.WaitCompacted(p, "ks"); !errors.Is(err, ssd.ErrInjectedFault) {
			t.Fatalf("WaitCompacted: %v, want the injected fault", err)
		}
		_ = fx.eng.WaitBackgroundIdle(p)
		used := fx.eng.zm.UsedByType()
		for _, typ := range []ZoneType{ZoneTemp, ZonePIDX, ZoneSortedValues} {
			if used[typ] != 0 {
				t.Errorf("%d %v zones still owned after the failed compaction", used[typ], typ)
			}
		}
		if used[ZoneKLOG] == 0 || used[ZoneVLOG] == 0 {
			t.Errorf("the keyspace's logs were released: %v", used)
		}
		if occ, dram := fx.eng.PipelineOccupancy(), fx.eng.DRAMGauge().Value(); occ != 0 || dram != 0 {
			t.Errorf("%d chunks still counted in the pipeline, %v bytes in engine/dram", occ, dram)
		}
		checkAccounting(t, fx.eng.zm)
	})
}

// TestCompactAfterFailedCompaction: a compaction that fails — a declared
// index whose byte range runs past the values — rolls its keyspace back to
// WRITABLE. WaitCompacted still reports that failure; a put is refused, for
// the failed job sealed the logs; and a plain Compact then compacts the
// keyspace, whose gets return the values put.
func TestCompactAfterFailedCompaction(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		const n = 800
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i) })
		past := nvme.SecondaryIndexSpec{Name: "past", Offset: 30, Length: 4, Type: keyenc.TypeBytes} // values are 32 bytes
		if err := fx.eng.CompactWithIndexes(p, "ks", []nvme.SecondaryIndexSpec{past}); err != nil {
			t.Fatal(err)
		}
		failed := fx.eng.WaitCompacted(p, "ks")
		if failed == nil {
			t.Fatal("compaction with an index past the values succeeded")
		}
		ks, _ := fx.eng.Keyspace("ks")
		if ks.State() != StateWritable {
			t.Fatalf("keyspace %s after the failed compaction, want %s", ks.State(), StateWritable)
		}
		if err := fx.eng.WaitCompacted(p, "ks"); err != failed {
			t.Fatalf("WaitCompacted after the failure: %v, want %v", err, failed)
		}
		if err := fx.eng.Put(p, "ks", tkey(n), tvalue(n, 0)); !errors.Is(err, ErrKeyspaceState) {
			t.Fatalf("put after the failed compaction: %v, want %v", err, ErrKeyspaceState)
		}
		compactAndWait(t, p, fx, "ks")
		for _, i := range []int{0, 1, n / 2, n - 1} {
			v, found, err := fx.eng.Get(p, "ks", tkey(i))
			if err != nil || !found || !bytes.Equal(v, tvalue(i, float32(i))) {
				t.Fatalf("get %d after the second compaction: %q found=%v err=%v", i, v, found, err)
			}
		}
	})
}
