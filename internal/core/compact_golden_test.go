package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/compaction_output.golden from the sort under test")

// compactionOutputCRCs ingests a seeded op stream with heavy key reuse
// (overwrites, deletes, and delete-then-put pairs that share a vlogOff),
// compacts it through the given path, builds the energy index, and returns one
// "<path> <cluster> <crc32c> <len>" line per output cluster. The sort budget is
// small enough that every sorter forms several runs and merges them. The
// "consolidated" path declares the index with the compaction and "joined"
// requests it right after Compact; both must have joined the value pass.
func compactionOutputCRCs(t *testing.T, path string) []byte {
	t.Helper()
	cfg := smallEngineConfig()
	cfg.DisableKVSeparation = path == "combined"
	fx := newEngineFixture(cfg)
	spec := nvme.SecondaryIndexSpec{Name: "energy", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
	var out bytes.Buffer
	fx.run(t, func(p *sim.Proc) {
		if err := fx.eng.CreateKeyspace(p, "ks"); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(14))
		var ops []nvme.KVPair
		for i := 0; i < 12000; i++ {
			k := rng.Intn(3000)
			put := nvme.KVPair{Key: tkey(k), Value: tvalue(i, float32(rng.Intn(48)))}
			switch r := rng.Intn(20); {
			case r == 0:
				ops = append(ops, nvme.KVPair{Key: tkey(k), Tombstone: true})
			case r == 1:
				ops = append(ops, nvme.KVPair{Key: tkey(k), Tombstone: true}, put)
			default:
				ops = append(ops, put)
			}
			if len(ops) >= 200 {
				if err := fx.eng.BulkOps(p, "ks", ops); err != nil {
					t.Fatal(err)
				}
				ops = ops[:0]
			}
		}
		if err := fx.eng.BulkOps(p, "ks", ops); err != nil {
			t.Fatal(err)
		}
		switch path {
		case "consolidated":
			if err := fx.eng.CompactWithIndexes(p, "ks", []nvme.SecondaryIndexSpec{spec}); err != nil {
				t.Fatal(err)
			}
		case "joined":
			if err := fx.eng.Compact(p, "ks"); err != nil {
				t.Fatal(err)
			}
			if err := fx.eng.BuildSecondaryIndex(p, "ks", spec); err != nil {
				t.Fatal(err)
			}
		default:
			compactAndWait(t, p, fx, "ks")
			if err := fx.eng.BuildSecondaryIndex(p, "ks", spec); err != nil {
				t.Fatal(err)
			}
		}
		want := int64(0)
		if path == "consolidated" || path == "joined" {
			want = 1
		}
		if got := fx.eng.sidxJoined.Value(); got != want {
			t.Fatalf("%s: %d builds joined the compaction, want %d", path, got, want)
		}
		if err := fx.eng.WaitCompacted(p, "ks"); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.WaitIndexBuilt(p, "ks", "energy"); err != nil {
			t.Fatal(err)
		}
		ks, _ := fx.eng.Keyspace("ks")
		for _, c := range []struct {
			name string
			c    *Cluster
		}{{"PIDX", ks.pidx}, {"SORTED_VALUES", ks.sorted}, {"SIDX", ks.secondary["energy"].cluster}} {
			data := make([]byte, c.c.Len())
			if err := c.c.ReadAt(p, data, 0); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %s %08x %d\n", path, c.name, crc32.Checksum(data, castagnoli), len(data))
		}
	})
	return out.Bytes()
}

// TestCompactionOutputGolden pins the bytes compaction and index build
// produce. The golden was recorded from the sort.SliceStable / container/heap
// implementation; the order of equal records is part of the on-media format
// (duplicate resolution keeps the first of each key), so regenerate it with
// -update only when that order is meant to change. It runs with poisoning on
// in every build: each source then overwrites the record it handed out last
// at its next call, so a record view kept past its lifetime changes a CRC.
func TestCompactionOutputGolden(t *testing.T) {
	var got []byte
	withPoison(func() {
		for _, path := range []string{"separated", "consolidated", "combined"} {
			got = append(got, compactionOutputCRCs(t, path)...)
		}
	})
	golden := filepath.Join("testdata", "compaction_output.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compaction output changed:\n got:\n%s want:\n%s", got, want)
	}
}
