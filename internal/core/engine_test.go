package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"kvcsd/internal/host"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

type engineFixture struct {
	env *sim.Env
	dev *ssd.Device
	soc *host.Host
	st  *stats.IOStats
	eng *Engine
}

func newEngineFixture(cfg Config) *engineFixture {
	return newEngineFixtureOn(cfg, host.DefaultSoCConfig())
}

// newEngineFixtureOn is newEngineFixture on a SoC configured by socCfg.
func newEngineFixtureOn(cfg Config, socCfg host.Config) *engineFixture {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	scfg := ssd.DefaultConfig()
	scfg.ZoneSize = 256 << 10
	scfg.NumZones = 1024
	dev := ssd.New(env, scfg, st)
	soc := host.New(env, socCfg)
	eng := NewEngine(env, dev, soc, cfg, sim.NewRNG(11), st)
	return &engineFixture{env: env, dev: dev, soc: soc, st: st, eng: eng}
}

func smallEngineConfig() Config {
	cfg := DefaultConfig()
	cfg.IngestBufferBytes = 8 << 10
	cfg.SortBudgetBytes = 32 << 10
	cfg.StripeWidth = 2
	return cfg
}

func (fx *engineFixture) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	fx.env.Go("test", fn)
	fx.env.Run()
}

func tkey(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// tvalue produces a 32-byte value whose last 4 bytes are a little-endian
// float32 "energy" attribute, mirroring the VPIC layout.
func tvalue(i int, energy float32) []byte {
	v := make([]byte, 32)
	copy(v, fmt.Sprintf("payload-%08d", i))
	binary.LittleEndian.PutUint32(v[28:], math.Float32bits(energy))
	return v
}

func ingestN(t testing.TB, p *sim.Proc, fx *engineFixture, ks string, n int, energyOf func(i int) float32) {
	t.Helper()
	if err := fx.eng.CreateKeyspace(p, ks); err != nil {
		t.Fatal(err)
	}
	var pairs []nvme.KVPair
	for i := 0; i < n; i++ {
		pairs = append(pairs, nvme.KVPair{Key: tkey(i), Value: tvalue(i, energyOf(i))})
		if len(pairs) == 256 || i == n-1 {
			if err := fx.eng.BulkOps(p, ks, pairs); err != nil {
				t.Fatal(err)
			}
			pairs = pairs[:0]
		}
	}
}

func compactAndWait(t testing.TB, p *sim.Proc, fx *engineFixture, ks string) {
	t.Helper()
	if err := fx.eng.Compact(p, ks); err != nil {
		t.Fatal(err)
	}
	if err := fx.eng.WaitCompacted(p, ks); err != nil {
		t.Fatal(err)
	}
}

func TestKeyspaceLifecycle(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		if err := fx.eng.CreateKeyspace(p, "ks"); err != nil {
			t.Fatal(err)
		}
		ks, _ := fx.eng.Keyspace("ks")
		if ks.State() != StateEmpty {
			t.Fatalf("state %v", ks.State())
		}
		if err := fx.eng.Put(p, "ks", []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if ks.State() != StateWritable {
			t.Fatalf("state after write %v", ks.State())
		}
		compactAndWait(t, p, fx, "ks")
		if ks.State() != StateCompacted {
			t.Fatalf("state after compact %v", ks.State())
		}
		// Writes rejected once compacted.
		if err := fx.eng.Put(p, "ks", []byte("k2"), []byte("v")); !errors.Is(err, ErrKeyspaceState) {
			t.Fatalf("put after compact: %v", err)
		}
		// Double compact rejected.
		if err := fx.eng.Compact(p, "ks"); !errors.Is(err, ErrKeyspaceState) {
			t.Fatalf("double compact: %v", err)
		}
	})
}

func TestDuplicateAndMissingKeyspace(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		_ = fx.eng.CreateKeyspace(p, "a")
		if err := fx.eng.CreateKeyspace(p, "a"); !errors.Is(err, ErrKeyspaceExists) {
			t.Fatalf("dup create: %v", err)
		}
		if err := fx.eng.Put(p, "ghost", []byte("k"), []byte("v")); !errors.Is(err, ErrKeyspaceNotFound) {
			t.Fatalf("missing put: %v", err)
		}
		if _, _, err := fx.eng.Get(p, "ghost", []byte("k")); !errors.Is(err, ErrKeyspaceNotFound) {
			t.Fatalf("missing get: %v", err)
		}
		if err := fx.eng.CreateKeyspace(p, ""); err == nil {
			t.Fatal("empty name accepted")
		}
	})
}

func TestIngestCompactGetRoundTrip(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		n := 3000
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i) })
		compactAndWait(t, p, fx, "ks")
		for i := 0; i < n; i += 71 {
			v, found, err := fx.eng.Get(p, "ks", tkey(i))
			if err != nil || !found {
				t.Fatalf("get %d: found=%v err=%v", i, found, err)
			}
			if !bytes.Equal(v, tvalue(i, float32(i))) {
				t.Fatalf("value %d mismatch", i)
			}
		}
		if _, found, _ := fx.eng.Get(p, "ks", []byte("missing-key")); found {
			t.Fatal("missing key found")
		}
		ks, _ := fx.eng.Keyspace("ks")
		if ks.Count() != int64(n) {
			t.Fatalf("count %d", ks.Count())
		}
		if !bytes.Equal(ks.MinKey(), tkey(0)) || !bytes.Equal(ks.MaxKey(), tkey(n-1)) {
			t.Fatal("min/max keys wrong")
		}
		if ks.CompactionDuration() <= 0 {
			t.Fatal("compaction duration not recorded")
		}
	})
}

func TestQueriesRejectedBeforeCompaction(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		_ = fx.eng.CreateKeyspace(p, "ks")
		_ = fx.eng.Put(p, "ks", []byte("k"), []byte("v"))
		if _, _, err := fx.eng.Get(p, "ks", []byte("k")); !errors.Is(err, ErrKeyspaceState) {
			t.Fatalf("get on WRITABLE keyspace: %v", err)
		}
	})
}

func TestDuplicateKeysKeepNewest(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		_ = fx.eng.CreateKeyspace(p, "ks")
		for i := 0; i < 500; i++ {
			_ = fx.eng.Put(p, "ks", []byte("dup"), []byte(fmt.Sprintf("v-%04d", i)))
		}
		compactAndWait(t, p, fx, "ks")
		v, found, err := fx.eng.Get(p, "ks", []byte("dup"))
		if err != nil || !found || string(v) != "v-0499" {
			t.Fatalf("got %q found=%v err=%v", v, found, err)
		}
		ks, _ := fx.eng.Keyspace("ks")
		if ks.Count() != 1 {
			t.Fatalf("dedup count %d", ks.Count())
		}
	})
}

func TestRangePrimary(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		n := 2000
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return 0 })
		compactAndWait(t, p, fx, "ks")
		var got []nvme.KVPair
		count, err := fx.eng.RangePrimary(p, "ks", tkey(500), tkey(700), 0, func(pr nvme.KVPair) bool {
			got = append(got, pr)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 200 || len(got) != 200 {
			t.Fatalf("range returned %d", count)
		}
		if !bytes.Equal(got[0].Key, tkey(500)) || !bytes.Equal(got[199].Key, tkey(699)) {
			t.Fatal("range bounds wrong")
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return bytes.Compare(got[i].Key, got[j].Key) < 0 }) {
			t.Fatal("range not sorted")
		}
		for _, pr := range got {
			var idx int
			fmt.Sscanf(string(pr.Key), "key-%d", &idx)
			if !bytes.Equal(pr.Value, tvalue(idx, 0)) {
				t.Fatalf("value mismatch at %s", pr.Key)
			}
		}
		// Limit and early stop.
		count, _ = fx.eng.RangePrimary(p, "ks", nil, nil, 10, func(nvme.KVPair) bool { return true })
		if count != 10 {
			t.Fatalf("limit ignored: %d", count)
		}
		calls := 0
		_, _ = fx.eng.RangePrimary(p, "ks", nil, nil, 0, func(nvme.KVPair) bool { calls++; return calls < 5 })
		if calls != 5 {
			t.Fatalf("early stop ignored: %d", calls)
		}
	})
}

func TestExist(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 500, func(i int) float32 { return 0 })
		compactAndWait(t, p, fx, "ks")
		ok, err := fx.eng.Exist(p, "ks", tkey(123))
		if err != nil || !ok {
			t.Fatalf("exist: %v %v", ok, err)
		}
		ok, _ = fx.eng.Exist(p, "ks", []byte("nope"))
		if ok {
			t.Fatal("absent key exists")
		}
	})
}

func TestSecondaryIndexBuildAndQuery(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		n := 2000
		// Energy descends as i ascends, so secondary order inverts primary.
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(n - i) })
		compactAndWait(t, p, fx, "ks")
		spec := nvme.SecondaryIndexSpec{Name: "energy", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
		if err := fx.eng.BuildSecondaryIndex(p, "ks", spec); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.WaitIndexBuilt(p, "ks", "energy"); err != nil {
			t.Fatal(err)
		}
		ks, _ := fx.eng.Keyspace("ks")
		if names := ks.SecondaryIndexNames(); len(names) != 1 || names[0] != "energy" {
			t.Fatalf("index names %v", names)
		}
		// Query energy in [100, 200): matches i in (n-200, n-100].
		lo := keyenc.PutFloat32(100)
		hi := keyenc.PutFloat32(200)
		var got []nvme.KVPair
		count, err := fx.eng.RangeSecondary(p, "ks", "energy", lo, hi, 0, func(pr nvme.KVPair) bool {
			got = append(got, pr)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 100 {
			t.Fatalf("secondary range matched %d, want 100", count)
		}
		for _, pr := range got {
			var idx int
			fmt.Sscanf(string(pr.Key), "key-%d", &idx)
			e := float32(n - idx)
			if e < 100 || e >= 200 {
				t.Fatalf("match outside range: i=%d energy=%v", idx, e)
			}
			if !bytes.Equal(pr.Value, tvalue(idx, e)) {
				t.Fatalf("value mismatch for %d", idx)
			}
		}
		// Results ordered by secondary key.
		for i := 1; i < len(got); i++ {
			var a, b int
			fmt.Sscanf(string(got[i-1].Key), "key-%d", &a)
			fmt.Sscanf(string(got[i].Key), "key-%d", &b)
			if float32(n-a) > float32(n-b) {
				t.Fatal("secondary results out of order")
			}
		}
	})
}

func TestSecondaryPointQuery(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		// Several records share energy 7.
		ingestN(t, p, fx, "ks", 300, func(i int) float32 {
			if i%100 == 0 {
				return 7
			}
			return float32(i) + 1000
		})
		compactAndWait(t, p, fx, "ks")
		spec := nvme.SecondaryIndexSpec{Name: "e", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
		_ = fx.eng.BuildSecondaryIndex(p, "ks", spec)
		_ = fx.eng.WaitIndexBuilt(p, "ks", "e")
		var got []nvme.KVPair
		count, err := fx.eng.GetSecondary(p, "ks", "e", keyenc.PutFloat32(7), 0, func(pr nvme.KVPair) bool {
			got = append(got, pr)
			return true
		})
		if err != nil || count != 3 {
			t.Fatalf("point query: count=%d err=%v", count, err)
		}
	})
}

func TestSecondaryIndexErrors(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 100, func(i int) float32 { return 0 })
		// Index build rejected pre-compaction (WRITABLE).
		spec := nvme.SecondaryIndexSpec{Name: "e", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
		if err := fx.eng.BuildSecondaryIndex(p, "ks", spec); !errors.Is(err, ErrKeyspaceState) {
			t.Fatalf("build on WRITABLE: %v", err)
		}
		compactAndWait(t, p, fx, "ks")
		if err := fx.eng.BuildSecondaryIndex(p, "ks", spec); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.WaitIndexBuilt(p, "ks", "e"); err != nil {
			t.Fatal(err)
		}
		// Duplicate index name.
		if err := fx.eng.BuildSecondaryIndex(p, "ks", spec); !errors.Is(err, ErrIndexExists) {
			t.Fatalf("dup index: %v", err)
		}
		// Bad specs.
		bad := []nvme.SecondaryIndexSpec{
			{Name: "", Offset: 0, Length: 4, Type: keyenc.TypeFloat32},
			{Name: "x", Offset: -1, Length: 4, Type: keyenc.TypeFloat32},
			{Name: "x", Offset: 0, Length: 0, Type: keyenc.TypeBytes},
			{Name: "x", Offset: 0, Length: 3, Type: keyenc.TypeFloat32},
		}
		for i, s := range bad {
			if err := fx.eng.BuildSecondaryIndex(p, "ks", s); err == nil {
				t.Fatalf("bad spec %d accepted", i)
			}
		}
		// Query against unknown index.
		if _, err := fx.eng.RangeSecondary(p, "ks", "nope", nil, nil, 0, nil); !errors.Is(err, ErrIndexNotFound) {
			t.Fatalf("unknown index query: %v", err)
		}
	})
}

func TestSecondaryRangeBeyondValueFails(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		_ = fx.eng.CreateKeyspace(p, "ks")
		_ = fx.eng.Put(p, "ks", []byte("k"), []byte("short"))
		compactAndWait(t, p, fx, "ks")
		spec := nvme.SecondaryIndexSpec{Name: "e", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
		if err := fx.eng.BuildSecondaryIndex(p, "ks", spec); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.WaitIndexBuilt(p, "ks", "e"); err == nil {
			t.Fatal("index over undersized values should fail")
		}
	})
}

// TestWaitCompactedReportsOwnCompaction fails a separate index build on a
// COMPACTED keyspace: the build is another job's failure, so a later
// WaitCompacted on that keyspace, and on another one, reports their own
// compactions, which both succeeded.
func TestWaitCompactedReportsOwnCompaction(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 500, func(i int) float32 { return float32(i) })
		ingestN(t, p, fx, "other", 500, func(i int) float32 { return float32(i) })
		if err := fx.eng.Put(p, "ks", tkey(500), []byte("short")); err != nil {
			t.Fatal(err)
		}
		compactAndWait(t, p, fx, "ks")
		if err := fx.eng.BuildSecondaryIndex(p, "ks", energySpec("e")); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.WaitIndexBuilt(p, "ks", "e"); !errors.Is(err, ErrIndexFailed) {
			t.Fatalf("index: %v, want a failed build", err)
		}
		if fx.eng.BackgroundErr() == nil {
			t.Fatal("the failed build left no background error")
		}
		if err := fx.eng.WaitCompacted(p, "ks"); err != nil {
			t.Errorf("second WaitCompacted on ks: %v, want nil", err)
		}
		if err := fx.eng.Compact(p, "other"); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.WaitCompacted(p, "other"); err != nil {
			t.Errorf("WaitCompacted on other: %v, want nil", err)
		}
	})
}

func TestCompactionIsAsynchronous(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 5000, func(i int) float32 { return 0 })
		before := p.Now()
		if err := fx.eng.Compact(p, "ks"); err != nil {
			t.Fatal(err)
		}
		invokeTime := p.Now() - before
		ks, _ := fx.eng.Keyspace("ks")
		if ks.State() != StateCompacting {
			t.Fatalf("state %v right after Compact", ks.State())
		}
		w0 := p.Now()
		if err := fx.eng.WaitCompacted(p, "ks"); err != nil {
			t.Fatal(err)
		}
		waited := p.Now() - w0
		if waited <= invokeTime*10 {
			t.Fatalf("compaction not meaningfully async: invoke %v, wait %v", sim.Time(invokeTime), sim.Time(waited))
		}
	})
}

func TestEmptyKeyspaceCompaction(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		_ = fx.eng.CreateKeyspace(p, "empty")
		if err := fx.eng.Compact(p, "empty"); err != nil {
			t.Fatal(err)
		}
		ks, _ := fx.eng.Keyspace("empty")
		if ks.State() != StateCompacted {
			t.Fatalf("state %v", ks.State())
		}
		if _, found, err := fx.eng.Get(p, "empty", []byte("k")); err != nil || found {
			t.Fatalf("get on empty: found=%v err=%v", found, err)
		}
		n, err := fx.eng.RangePrimary(p, "empty", nil, nil, 0, func(nvme.KVPair) bool { return true })
		if err != nil || n != 0 {
			t.Fatalf("range on empty: %d %v", n, err)
		}
	})
}

func TestDeleteKeyspaceFreesZones(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		free0 := fx.eng.ZoneManager().FreeZones()
		ingestN(t, p, fx, "ks", 2000, func(i int) float32 { return float32(i) })
		compactAndWait(t, p, fx, "ks")
		spec := nvme.SecondaryIndexSpec{Name: "e", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
		_ = fx.eng.BuildSecondaryIndex(p, "ks", spec)
		_ = fx.eng.WaitIndexBuilt(p, "ks", "e")
		if fx.eng.ZoneManager().FreeZones() >= free0 {
			t.Fatal("no zones in use before delete")
		}
		if err := fx.eng.DeleteKeyspace(p, "ks"); err != nil {
			t.Fatal(err)
		}
		if fx.eng.ZoneManager().FreeZones() != free0 {
			t.Fatalf("zones leaked: %d != %d", fx.eng.ZoneManager().FreeZones(), free0)
		}
		if _, err := fx.eng.Keyspace("ks"); !errors.Is(err, ErrKeyspaceNotFound) {
			t.Fatal("keyspace still present")
		}
	})
}

func TestDeleteDuringCompactionDeferred(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 3000, func(i int) float32 { return 0 })
		_ = fx.eng.Compact(p, "ks")
		// Delete while COMPACTING: must wait, then fully remove.
		if err := fx.eng.DeleteKeyspace(p, "ks"); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.eng.Keyspace("ks"); !errors.Is(err, ErrKeyspaceNotFound) {
			t.Fatal("keyspace still present after deferred delete")
		}
		if err := fx.eng.WaitBackgroundIdle(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRecoveryAfterRestart(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		n := 1500
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i % 50) })
		compactAndWait(t, p, fx, "ks")
		spec := nvme.SecondaryIndexSpec{Name: "e", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
		_ = fx.eng.BuildSecondaryIndex(p, "ks", spec)
		_ = fx.eng.WaitIndexBuilt(p, "ks", "e")
		_ = fx.eng.Sync(p, "ks")

		// "Restart": a new engine over the same device recovers the table.
		eng2 := NewEngine(fx.env, fx.dev, fx.soc, smallEngineConfig(), sim.NewRNG(22), fx.st)
		if err := eng2.Recover(p); err != nil {
			t.Fatal(err)
		}
		ks, err := eng2.Keyspace("ks")
		if err != nil {
			t.Fatal(err)
		}
		if ks.State() != StateCompacted || ks.Count() != int64(n) {
			t.Fatalf("recovered state %v count %d", ks.State(), ks.Count())
		}
		for i := 0; i < n; i += 113 {
			v, found, err := eng2.Get(p, "ks", tkey(i))
			if err != nil || !found || !bytes.Equal(v, tvalue(i, float32(i%50))) {
				t.Fatalf("recovered get %d: found=%v err=%v", i, found, err)
			}
		}
		// Secondary index survives too.
		count, err := eng2.RangeSecondary(p, "ks", "e",
			keyenc.PutFloat32(10), keyenc.PutFloat32(11), 0, func(nvme.KVPair) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if count != n/50 {
			t.Fatalf("recovered secondary query matched %d, want %d", count, n/50)
		}
	})
}

func TestRecoveryMidCompactionRollsBack(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 1000, func(i int) float32 { return 0 })
		// Persist WRITABLE state with data, transition to COMPACTING, then
		// "crash" before the compaction job persists COMPACTED.
		if err := fx.eng.Compact(p, "ks"); err != nil {
			t.Fatal(err)
		}
		fx.eng.Halt() // controller crash before the compaction job starts
		// New engine recovers from metadata written at COMPACTING entry.
		eng2 := NewEngine(fx.env, fx.dev, fx.soc, smallEngineConfig(), sim.NewRNG(23), fx.st)
		if err := eng2.Recover(p); err != nil {
			t.Fatal(err)
		}
		ks, err := eng2.Keyspace("ks")
		if err != nil {
			t.Fatal(err)
		}
		if ks.State() != StateWritable {
			t.Fatalf("mid-compaction recovery state %v, want WRITABLE", ks.State())
		}
		// And compaction can be reinvoked on the recovered keyspace.
		if err := eng2.Compact(p, "ks"); err != nil {
			t.Fatal(err)
		}
		if err := eng2.WaitCompacted(p, "ks"); err != nil {
			t.Fatal(err)
		}
		// The halted engine's job failed without touching the media, and
		// said so to its waiters.
		if err := fx.eng.WaitCompacted(p, "ks"); !errors.Is(err, errHalted) {
			t.Fatalf("halted engine's compaction: %v", err)
		}
		if err := fx.eng.WaitBackgroundIdle(p); !errors.Is(err, errHalted) {
			t.Fatalf("halted engine's background error: %v", err)
		}
	})
}

func TestOversizedRecordsRejected(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.MaxKeyLen = 16
	cfg.MaxValueLen = 64
	fx := newEngineFixture(cfg)
	fx.run(t, func(p *sim.Proc) {
		_ = fx.eng.CreateKeyspace(p, "ks")
		if err := fx.eng.Put(p, "ks", make([]byte, 17), []byte("v")); !errors.Is(err, ErrKeyTooLarge) {
			t.Fatalf("big key: %v", err)
		}
		if err := fx.eng.Put(p, "ks", []byte("k"), make([]byte, 65)); !errors.Is(err, ErrValueTooLarge) {
			t.Fatalf("big value: %v", err)
		}
	})
}

func TestKeyspaceInfo(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 800, func(i int) float32 { return 1 })
		compactAndWait(t, p, fx, "ks")
		info, err := fx.eng.KeyspaceInfo("ks")
		if err != nil {
			t.Fatal(err)
		}
		if info.Name != "ks" || info.State != StateCompacted.String() || info.Pairs != 800 {
			t.Fatalf("info %+v", info)
		}
		if info.ZoneCount == 0 || info.CompactDur <= 0 {
			t.Fatalf("info zones/dur %+v", info)
		}
		if _, err := fx.eng.KeyspaceInfo("nope"); err == nil {
			t.Fatal("missing keyspace info")
		}
	})
}

func TestMultipleKeyspacesIsolated(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		// Same keys in two keyspaces with different values: no conflicts
		// (paper: keys can be reused across keyspaces).
		for _, name := range []string{"a", "b"} {
			_ = fx.eng.CreateKeyspace(p, name)
			for i := 0; i < 300; i++ {
				_ = fx.eng.Put(p, name, tkey(i), []byte(name+fmt.Sprint(i)))
			}
			_ = fx.eng.Compact(p, name)
		}
		_ = fx.eng.WaitCompacted(p, "a")
		_ = fx.eng.WaitCompacted(p, "b")
		va, _, _ := fx.eng.Get(p, "a", tkey(7))
		vb, _, _ := fx.eng.Get(p, "b", tkey(7))
		if string(va) != "a7" || string(vb) != "b7" {
			t.Fatalf("cross-keyspace values: %q %q", va, vb)
		}
	})
}

func TestStateStrings(t *testing.T) {
	if StateEmpty.String() != "EMPTY" || StateWritable.String() != "WRITABLE" ||
		StateCompacting.String() != "COMPACTING" || StateCompacted.String() != "COMPACTED" {
		t.Fatal("state strings wrong")
	}
	if KeyspaceState(9).String() != "KeyspaceState(9)" {
		t.Fatal("unknown state string")
	}
}

func TestSketchFind(t *testing.T) {
	sk := []sketchEntry{
		{pivot: []byte("d"), block: 0},
		{pivot: []byte("m"), block: 1},
		{pivot: []byte("t"), block: 2},
	}
	cases := []struct {
		key  string
		want int
	}{
		{"a", -1}, {"d", 0}, {"f", 0}, {"m", 1}, {"s", 1}, {"t", 2}, {"z", 2},
	}
	for _, c := range cases {
		if got := sketchFind(sk, []byte(c.key)); got != c.want {
			t.Errorf("sketchFind(%q) = %d, want %d", c.key, got, c.want)
		}
	}
	if sketchFind(nil, []byte("x")) != -1 {
		t.Fatal("empty sketch should return -1")
	}
}

// TestFailedFlushHandsScratchBack: an ingest flush whose first append fails
// — the VLOG's, or the KLOG's in the combined layout — still hands its
// scratch buffer back, so the zone manager's free list counts no buffer lent
// and later appends keep reusing the kept one.
func TestFailedFlushHandsScratchBack(t *testing.T) {
	for _, combined := range []bool{false, true} {
		t.Run(fmt.Sprintf("combined=%v", combined), func(t *testing.T) {
			cfg := smallEngineConfig()
			cfg.DisableKVSeparation = combined
			fx := newEngineFixture(cfg)
			fx.run(t, func(p *sim.Proc) {
				ingestN(t, p, fx, "ks", 1000, func(i int) float32 { return float32(i) })
				fx.dev.InjectFault("zone-write", -1, 1)
				var err error
				for i := 1000; err == nil && i < 4000; i++ {
					err = fx.eng.BulkOps(p, "ks", []nvme.KVPair{{Key: tkey(i), Value: tvalue(i, 0)}})
				}
				if !errors.Is(err, ssd.ErrInjectedFault) {
					t.Fatalf("ingest: %v, want the injected fault", err)
				}
				if out := fx.eng.zm.scratch.out; out != 0 {
					t.Errorf("%d scratch buffers still counted as lent after the failed flush", out)
				}
			})
		})
	}
}
