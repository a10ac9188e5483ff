package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

func TestDeleteHidesKeyAfterCompaction(t *testing.T) {
	for _, combined := range []bool{false, true} {
		cfg := smallEngineConfig()
		cfg.DisableKVSeparation = combined
		fx := newEngineFixture(cfg)
		fx.run(t, func(p *sim.Proc) {
			ingestN(t, p, fx, "ks", 1000, func(i int) float32 { return 0 })
			// Delete every 10th key before compaction.
			for i := 0; i < 1000; i += 10 {
				if err := fx.eng.Delete(p, "ks", tkey(i)); err != nil {
					t.Fatal(err)
				}
			}
			compactAndWait(t, p, fx, "ks")
			ks, _ := fx.eng.Keyspace("ks")
			if ks.Count() != 900 {
				t.Fatalf("combined=%v: count %d, want 900", combined, ks.Count())
			}
			for i := 0; i < 1000; i++ {
				_, found, err := fx.eng.Get(p, "ks", tkey(i))
				if err != nil {
					t.Fatal(err)
				}
				want := i%10 != 0
				if found != want {
					t.Fatalf("combined=%v key %d: found=%v want %v", combined, i, found, want)
				}
			}
			// Range scans skip deleted keys too.
			n, err := fx.eng.RangePrimary(p, "ks", nil, nil, 0, func(nvme.KVPair) bool { return true })
			if err != nil || n != 900 {
				t.Fatalf("combined=%v scan: %d %v", combined, n, err)
			}
		})
	}
}

func TestDeleteThenReinsertKeepsNewest(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		_ = fx.eng.CreateKeyspace(p, "ks")
		// put -> delete -> put again: the final put wins, including across
		// the tombstone/put vlogOff tie.
		_ = fx.eng.Put(p, "ks", []byte("k"), []byte("v1"))
		_ = fx.eng.Delete(p, "ks", []byte("k"))
		_ = fx.eng.Put(p, "ks", []byte("k"), []byte("v2"))
		compactAndWait(t, p, fx, "ks")
		v, found, err := fx.eng.Get(p, "ks", []byte("k"))
		if err != nil || !found || string(v) != "v2" {
			t.Fatalf("reinsert lost: found=%v v=%q err=%v", found, v, err)
		}
	})
}

func TestDeleteWinsOverEarlierPut(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		_ = fx.eng.CreateKeyspace(p, "ks")
		_ = fx.eng.Put(p, "ks", []byte("k"), []byte("v1"))
		_ = fx.eng.Delete(p, "ks", []byte("k"))
		compactAndWait(t, p, fx, "ks")
		if _, found, _ := fx.eng.Get(p, "ks", []byte("k")); found {
			t.Fatal("deleted key resurfaced")
		}
		ks, _ := fx.eng.Keyspace("ks")
		if ks.Count() != 0 {
			t.Fatalf("count %d after full delete", ks.Count())
		}
	})
}

func TestDeleteAbsentKeyHarmless(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		_ = fx.eng.CreateKeyspace(p, "ks")
		_ = fx.eng.Put(p, "ks", []byte("live"), []byte("v"))
		_ = fx.eng.Delete(p, "ks", []byte("never-existed"))
		compactAndWait(t, p, fx, "ks")
		v, found, _ := fx.eng.Get(p, "ks", []byte("live"))
		if !found || string(v) != "v" {
			t.Fatal("unrelated key affected by tombstone")
		}
		ks, _ := fx.eng.Keyspace("ks")
		if ks.Count() != 1 {
			t.Fatalf("count %d", ks.Count())
		}
	})
}

func TestBulkOpsMixedPutsAndDeletes(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		_ = fx.eng.CreateKeyspace(p, "ks")
		var ops []nvme.KVPair
		for i := 0; i < 500; i++ {
			ops = append(ops, nvme.KVPair{Key: tkey(i), Value: tvalue(i, 0)})
		}
		for i := 0; i < 500; i += 2 {
			ops = append(ops, nvme.KVPair{Key: tkey(i), Tombstone: true})
		}
		if err := fx.eng.BulkOps(p, "ks", ops); err != nil {
			t.Fatal(err)
		}
		compactAndWait(t, p, fx, "ks")
		ks, _ := fx.eng.Keyspace("ks")
		if ks.Count() != 250 {
			t.Fatalf("count %d, want 250", ks.Count())
		}
		for i := 0; i < 500; i++ {
			_, found, _ := fx.eng.Get(p, "ks", tkey(i))
			if found != (i%2 == 1) {
				t.Fatalf("key %d: found=%v", i, found)
			}
		}
	})
}

func TestDeletedKeysAbsentFromSecondaryIndex(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 400, func(i int) float32 { return float32(i % 4) })
		// Delete all keys with energy tag 2.
		for i := 2; i < 400; i += 4 {
			_ = fx.eng.Delete(p, "ks", tkey(i))
		}
		compactAndWait(t, p, fx, "ks")
		spec := nvme.SecondaryIndexSpec{Name: "e", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
		_ = fx.eng.BuildSecondaryIndex(p, "ks", spec)
		if err := fx.eng.WaitIndexBuilt(p, "ks", "e"); err != nil {
			t.Fatal(err)
		}
		n, err := fx.eng.GetSecondary(p, "ks", "e", keyenc.PutFloat32(2), 0, func(nvme.KVPair) bool { return true })
		if err != nil || n != 0 {
			t.Fatalf("deleted keys in secondary index: %d %v", n, err)
		}
		n, _ = fx.eng.GetSecondary(p, "ks", "e", keyenc.PutFloat32(1), 0, func(nvme.KVPair) bool { return true })
		if n != 100 {
			t.Fatalf("surviving tag count %d", n)
		}
	})
}

func TestDeletePropertyMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		fx := newEngineFixture(smallEngineConfig())
		ok := true
		fx.run(t, func(p *sim.Proc) {
			rng := sim.NewRNG(seed)
			if err := fx.eng.CreateKeyspace(p, "prop"); err != nil {
				ok = false
				return
			}
			ref := map[string]string{}
			for op := 0; op < 600; op++ {
				k := fmt.Sprintf("k%03d", rng.Intn(150))
				if rng.Intn(4) == 0 {
					if err := fx.eng.Delete(p, "prop", []byte(k)); err != nil {
						ok = false
						return
					}
					delete(ref, k)
				} else {
					v := fmt.Sprintf("v%06d", op)
					if err := fx.eng.Put(p, "prop", []byte(k), []byte(v)); err != nil {
						ok = false
						return
					}
					ref[k] = v
				}
			}
			if err := fx.eng.Compact(p, "prop"); err != nil {
				ok = false
				return
			}
			if err := fx.eng.WaitCompacted(p, "prop"); err != nil {
				ok = false
				return
			}
			ks, _ := fx.eng.Keyspace("prop")
			if ks.Count() != int64(len(ref)) {
				ok = false
				return
			}
			for k, v := range ref {
				got, found, err := fx.eng.Get(p, "prop", []byte(k))
				if err != nil || !found || !bytes.Equal(got, []byte(v)) {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}
