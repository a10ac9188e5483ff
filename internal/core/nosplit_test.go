package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
)

func TestCombinedLayoutRoundTrip(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.DisableKVSeparation = true
	fx := newEngineFixture(cfg)
	fx.run(t, func(p *sim.Proc) {
		n := 2000
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i) })
		compactAndWait(t, p, fx, "ks")
		for i := 0; i < n; i += 83 {
			v, found, err := fx.eng.Get(p, "ks", tkey(i))
			if err != nil || !found || !bytes.Equal(v, tvalue(i, float32(i))) {
				t.Fatalf("combined get %d: found=%v err=%v", i, found, err)
			}
		}
		// Range works too.
		cnt, err := fx.eng.RangePrimary(p, "ks", tkey(10), tkey(20), 0, func(nvme.KVPair) bool { return true })
		if err != nil || cnt != 10 {
			t.Fatalf("combined range: %d %v", cnt, err)
		}
	})
}

func TestCombinedLayoutDuplicatesKeepNewest(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.DisableKVSeparation = true
	fx := newEngineFixture(cfg)
	fx.run(t, func(p *sim.Proc) {
		_ = fx.eng.CreateKeyspace(p, "ks")
		for i := 0; i < 300; i++ {
			_ = fx.eng.Put(p, "ks", []byte("dup"), []byte(fmt.Sprintf("v-%04d", i)))
		}
		compactAndWait(t, p, fx, "ks")
		v, found, _ := fx.eng.Get(p, "ks", []byte("dup"))
		if !found || string(v) != "v-0299" {
			t.Fatalf("combined dedup got %q", v)
		}
	})
}

func TestSeparationMovesFewerValueBytes(t *testing.T) {
	// The paper's claim: with key-value separation, values move through the
	// sort once; combined records drag values through every merge round.
	measure := func(disable bool) int64 {
		cfg := smallEngineConfig()
		cfg.SortBudgetBytes = 16 << 10 // force several runs...
		cfg.MergeFanin = 4             // ...and multiple merge rounds
		cfg.DisableKVSeparation = disable
		fx := newEngineFixture(cfg)
		fx.run(t, func(p *sim.Proc) {
			ingestN(t, p, fx, "ks", 8000, func(i int) float32 { return float32(i * 7919 % 100) })
			compactAndWait(t, p, fx, "ks")
		})
		return fx.st.MediaWrite.Value()
	}
	separated := measure(false)
	combined := measure(true)
	if separated >= combined {
		t.Fatalf("separation should write fewer media bytes: separated=%d combined=%d", separated, combined)
	}
}

// TestFailedCombinedCompactionReleasesClusters fails a combined-layout
// compaction with a zone write once its final merge has begun writing PIDX
// and checks that the job let go of every cluster it was writing: no ZoneTemp
// (runs), PIDX or SORTED_VALUES zone stays owned once the background work is
// done. The KLOG stays the keyspace's.
func TestFailedCombinedCompactionReleasesClusters(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.DisableKVSeparation = true
	fx := newEngineFixture(cfg)
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 8000, func(i int) float32 { return float32(i) })
		if err := fx.eng.Compact(p, "ks"); err != nil {
			t.Fatal(err)
		}
		for fx.eng.zm.UsedByType()[ZonePIDX] == 0 {
			p.Sleep(sim.Duration(time.Microsecond))
		}
		fx.dev.InjectFault("zone-write", -1, 1)
		if err := fx.eng.WaitCompacted(p, "ks"); !errors.Is(err, ssd.ErrInjectedFault) {
			t.Fatalf("compaction: %v, want the injected fault", err)
		}
		_ = fx.eng.WaitBackgroundIdle(p)
		used := fx.eng.zm.UsedByType()
		for _, typ := range []ZoneType{ZoneTemp, ZonePIDX, ZoneSortedValues} {
			if used[typ] != 0 {
				t.Errorf("%d %v zones still owned after the failed compaction", used[typ], typ)
			}
		}
		if used[ZoneKLOG] == 0 {
			t.Errorf("the keyspace's log was released: %v", used)
		}
		checkAccounting(t, fx.eng.zm)
	})
}
