package core

import (
	"bytes"
	"fmt"
	"testing"

	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
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
