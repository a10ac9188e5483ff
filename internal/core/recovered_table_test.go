package core

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"kvcsd/internal/compaction"
	"kvcsd/internal/host"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

var updateRecoveredTable = flag.Bool("update-recovered", false,
	"rewrite testdata/recovered_table.golden from the metadata codec under test")

// newRecoveredTableFixture is the small engine over 64 KiB zones: small
// enough that both metadata zones fill and rotate during the workload, large
// enough for a frame carrying the whole table.
func newRecoveredTableFixture() *engineFixture {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	scfg := ssd.DefaultConfig()
	scfg.ZoneSize = 64 << 10
	scfg.NumZones = 512
	dev := ssd.New(env, scfg, st)
	soc := host.New(env, host.DefaultSoCConfig())
	eng := NewEngine(env, dev, soc, smallEngineConfig(), sim.NewRNG(25), st)
	return &engineFixture{env: env, dev: dev, soc: soc, st: st, eng: eng}
}

// dumpTable renders everything Recover rebuilds from the metadata zones, one
// keyspace per block in name order. Byte fields are printed as length and
// CRC. A live table dumps as what recovering it would give: a COMPACTING
// keyspace rolls back to WRITABLE and unbuilt secondary indexes vanish.
func dumpTable(b *bytes.Buffer, m *Manager) {
	for _, name := range m.Names() {
		ks := m.table[name]
		state := ks.state
		if state == StateCompacting {
			state = StateWritable
		}
		fmt.Fprintf(b, "keyspace %q state=%s count=%d bytes=%d min=%x max=%x\n",
			name, state, ks.count, ks.bytes, ks.minKey, ks.maxKey)
		dumpCluster(b, "klog", ks.klog)
		dumpCluster(b, "vlog", ks.vlog)
		dumpCluster(b, "pidx", ks.pidx)
		dumpCluster(b, "sorted", ks.sorted)
		fmt.Fprintf(b, "  log_frames")
		for _, e := range ks.logFrames {
			fmt.Fprintf(b, " [%d,%d)", e.Start, e.End)
		}
		fmt.Fprintf(b, "\n  sketch %s\n", sketchDigest(ks.sketch))
		for _, sn := range ks.secondaryNames() {
			si := ks.secondary[sn]
			if !si.packed() {
				continue
			}
			fmt.Fprintf(b, "  secondary %q offset=%d length=%d type=%d sketch %s\n",
				sn, si.spec.Offset, si.spec.Length, si.spec.Type, sketchDigest(si.sketch))
			dumpCluster(b, "  sidx", si.cluster)
		}
		if ks.heat != nil {
			enc := compaction.AppendHeat(nil, ks.heat)
			fmt.Fprintf(b, "  heat granules=%d crc=%08x\n", ks.heat.Len(), crc32.ChecksumIEEE(enc))
		}
	}
}

func dumpCluster(b *bytes.Buffer, label string, c *Cluster) {
	if c == nil {
		fmt.Fprintf(b, "  %s -\n", label)
		return
	}
	sums := make([]byte, 4*len(c.sums))
	for i, s := range c.sums {
		binary.LittleEndian.PutUint32(sums[4*i:], s)
	}
	fmt.Fprintf(b, "  %s id=%d type=%s stripes=%v offset=%d length=%d sealed=%v tail=%d/%08x sums=%d/%08x\n",
		label, c.id, c.typ, c.stripes, c.offset, c.length, c.sealed,
		len(c.tail), crc32.ChecksumIEEE(c.tail), len(c.sums), crc32.ChecksumIEEE(sums))
}

func sketchDigest(s []sketchEntry) string {
	h := crc32.NewIEEE()
	var n [8]byte
	for _, e := range s {
		binary.LittleEndian.PutUint64(n[:], uint64(len(e.pivot)))
		h.Write(n[:])
		h.Write(e.pivot)
		binary.LittleEndian.PutUint64(n[:], uint64(e.block))
		h.Write(n[:])
	}
	return fmt.Sprintf("n=%d crc=%08x", len(s), h.Sum32())
}

// recoveredTableWorkload drives one seeded single-proc session through every
// kind of metadata change: six keyspaces, ingest with and without Sync, three
// compactions, two secondary indexes, reads that heat granules, and a
// deleted-then-recreated name. At each of eight checkpoints it calls
// checkpoint, which returns the engine to continue on (a restarted one).
func recoveredTableWorkload(t *testing.T, p *sim.Proc, eng *Engine, checkpoint func(label string) *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(25))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	bulk := func(ks string, n int) {
		t.Helper()
		var pairs []nvme.KVPair
		for i := 0; i < n; i++ {
			k := rng.Intn(1 << 20)
			pairs = append(pairs, nvme.KVPair{Key: tkey(k), Value: tvalue(k, float32(rng.Intn(64)))})
			if len(pairs) == 128 || i == n-1 {
				must(eng.BulkOps(p, ks, pairs))
				pairs = pairs[:0]
			}
		}
	}
	puts := func(ks string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			k := rng.Intn(1 << 20)
			must(eng.Put(p, ks, tkey(k), tvalue(k, float32(rng.Intn(64)))))
		}
	}
	compact := func(ks string) {
		t.Helper()
		must(eng.Compact(p, ks))
		must(eng.WaitCompacted(p, ks))
	}
	index := func(ks string) {
		t.Helper()
		must(eng.BuildSecondaryIndex(p, ks, nvme.SecondaryIndexSpec{Name: "energy", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}))
		must(eng.WaitIndexBuilt(p, ks, "energy"))
	}
	reads := func(ks string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := eng.Get(p, ks, tkey(rng.Intn(1<<20))); err != nil {
				t.Fatal(err)
			}
		}
		lo := tkey(rng.Intn(1 << 19))
		if _, err := eng.RangePrimary(p, ks, lo, nil, 64, func(nvme.KVPair) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}

	for _, ks := range []string{"a", "b", "c", "d", "e", "f"} {
		must(eng.CreateKeyspace(p, ks))
	}
	bulk("a", 700)
	must(eng.Sync(p, "a"))
	puts("b", 150)
	eng = checkpoint("a synced, b unsynced")

	bulk("c", 900)
	must(eng.Sync(p, "c"))
	bulk("d", 500)
	bulk("e", 250)
	must(eng.Sync(p, "e"))
	puts("f", 40)
	must(eng.Sync(p, "f"))
	eng = checkpoint("c, e, f synced, d unsynced")

	compact("a")
	compact("c")
	eng = checkpoint("a and c compacted")

	index("a")
	index("c")
	eng = checkpoint("energy indexes on a and c")

	compact("d")
	reads("a", 60)
	reads("c", 30)
	reads("d", 20)
	must(eng.Sync(p, "e"))
	eng = checkpoint("d compacted, reads persisted")

	must(eng.DeleteKeyspace(p, "b"))
	must(eng.CreateKeyspace(p, "b"))
	bulk("b", 120)
	must(eng.Sync(p, "b"))
	eng = checkpoint("b deleted and recreated")

	reads("a", 40)
	reads("d", 40)
	bulk("e", 300)
	// Many small synced batches: the metadata log fills its zone and
	// switches to the other one on its own, between restarts.
	for i := 0; i < 40; i++ {
		puts("f", 12)
		must(eng.Sync(p, "f"))
	}
	eng = checkpoint("e unsynced, f synced")

	reads("c", 50)
	bulk("b", 200)
	must(eng.Sync(p, "b"))
	checkpoint("b synced again")
}

// TestRecoveredTableGolden pins what recovery rebuilds from the metadata
// zones at eight checkpoints of a seeded session. At each checkpoint the
// engine halts, a fresh engine recovers from the zones and is dumped, then
// scrubs (which rotates the metadata log into the other zone) and carries on.
// The golden was recorded with the gob full-table snapshot codec; a metadata
// codec must rebuild the same table from its own frames, byte for byte.
func TestRecoveredTableGolden(t *testing.T) {
	fx := newRecoveredTableFixture()
	var got bytes.Buffer
	restarts := int64(0)
	fx.run(t, func(p *sim.Proc) {
		eng := fx.eng
		recoveredTableWorkload(t, p, eng, func(label string) *Engine {
			if err := eng.WaitBackgroundIdle(p); err != nil {
				t.Fatal(err)
			}
			eng.Halt()
			restarts++
			next, err := recoverFresh(t, fx, p, 100+restarts)
			if err != nil {
				t.Fatalf("%s: recover: %v", label, err)
			}
			fmt.Fprintf(&got, "== checkpoint %d: %s\n", restarts, label)
			dumpTable(&got, next.Manager())
			if _, err := next.Scrub(p); err != nil {
				t.Fatalf("%s: scrub: %v", label, err)
			}
			eng = next
			return next
		})
	})
	if restarts != 8 {
		t.Fatalf("%d checkpoints, want 8", restarts)
	}
	golden := filepath.Join("testdata", "recovered_table.golden")
	if *updateRecoveredTable {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("recovered table changed:\n got:\n%s want:\n%s", got.Bytes(), want)
	}
}

// TestIndexBuiltDurableWhenReported: WaitIndexBuilt returns only once the
// metadata frame that records the index built is on media. Power is cut the
// instant it returns, on every build path — a separate build after the
// compaction, one declared with it, and one requested while it runs that
// joins its value pass — and the recovered engine has the index and answers a
// query from it.
func TestIndexBuiltDurableWhenReported(t *testing.T) {
	for _, path := range []string{"separate", "consolidated", "joined"} {
		fx := newEngineFixture(smallEngineConfig())
		fx.run(t, func(p *sim.Proc) {
			const n = 1000
			ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i % 10) })
			spec := energySpec("e")
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
				if got := fx.eng.sidxJoined.Value(); got != 1 {
					t.Fatalf("joined: %d builds joined the compaction, want 1", got)
				}
			default:
				compactAndWait(t, p, fx, "ks")
				if err := fx.eng.BuildSecondaryIndex(p, "ks", spec); err != nil {
					t.Fatal(err)
				}
			}
			if err := fx.eng.WaitIndexBuilt(p, "ks", "e"); err != nil {
				t.Fatal(err)
			}
			fx.eng.Halt()
			fx.dev.PowerCut(p)
			fx.dev.PowerOn()
			next, err := recoverFresh(t, fx, p, 31)
			if err != nil {
				t.Fatalf("%s: recover: %v", path, err)
			}
			count, err := next.RangeSecondary(p, "ks", "e",
				keyenc.PutFloat32(3), keyenc.PutFloat32(4), 0, func(nvme.KVPair) bool { return true })
			if err != nil || count != n/10 {
				t.Fatalf("%s: the reported index matched %d after the cut (err %v), want %d", path, count, err, n/10)
			}
		})
	}
}
