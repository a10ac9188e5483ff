package array

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"kvcsd/internal/client"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// run executes fn as the master proc of a fresh simulation and fails the
// test on error.
func run(t *testing.T, env *sim.Env, fn func(p *sim.Proc) error) {
	t.Helper()
	if err := runMaster(env, fn); err != nil {
		t.Fatalf("simulation: %v", err)
	}
}

// --- Ring placement -------------------------------------------------------

func TestRingPlacementDeterministic(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta", "vpic-ts0", "vpic-ts1"}
	r1 := NewRing(7, 8)
	r2 := NewRing(7, 8)
	for _, n := range names {
		a, b := r1.Owners(n, 3), r2.Owners(n, 3)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("same seed, different owners for %q: %v vs %v", n, a, b)
		}
		if len(a) != 3 {
			t.Fatalf("wanted 3 owners for %q, got %v", n, a)
		}
		seen := map[int]bool{}
		for _, d := range a {
			if seen[d] {
				t.Fatalf("duplicate owner for %q: %v", n, a)
			}
			seen[d] = true
		}
	}
	// A different seed must move at least one placement.
	r3 := NewRing(8, 8)
	moved := false
	for _, n := range names {
		if fmt.Sprint(r1.Owners(n, 3)) != fmt.Sprint(r3.Owners(n, 3)) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("seed change did not move any placement")
	}
	// Replica clamp.
	if got := len(NewRing(1, 2).Owners("x", 5)); got != 2 {
		t.Fatalf("owners not clamped to device count: %d", got)
	}
}

// TestShardMapDeterministic builds the same range-sharded keyspace in two
// independent simulations and requires identical shard maps.
func TestShardMapDeterministic(t *testing.T) {
	build := func() []string {
		env := sim.NewEnv()
		opts := DefaultOptions()
		opts.Seed = 42
		a := New(env, opts)
		var sm []string
		run(t, env, func(p *sim.Proc) error {
			ks, err := a.CreateRangeSharded(p, "big", 8)
			if err != nil {
				return err
			}
			sm = ks.ShardMap()
			a.Shutdown()
			return nil
		})
		return sm
	}
	m1, m2 := build(), build()
	if fmt.Sprint(m1) != fmt.Sprint(m2) {
		t.Fatalf("shard maps differ across runs:\n%v\n%v", m1, m2)
	}
	if len(m1) != 8 {
		t.Fatalf("wanted 8 partitions, got %d", len(m1))
	}
}

// --- Scatter-gather range queries -----------------------------------------

func TestScatterGatherOrderedMerge(t *testing.T) {
	env := sim.NewEnv()
	opts := DefaultOptions()
	opts.Replicas = 1
	a := New(env, opts)
	const keys = 512
	run(t, env, func(p *sim.Proc) error {
		ks, err := a.CreateRangeSharded(p, "scan", 4)
		if err != nil {
			return err
		}
		for i := 0; i < keys; i++ {
			if err := ks.BulkPut(p, scaleKey(1, i), scaleValue(1, i, 64)); err != nil {
				return err
			}
		}
		if err := ks.Flush(p); err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		// Every shard should hold a slice of a uniform key population.
		nonEmpty := 0
		for pi := range ks.parts {
			pairs, err := ks.parts[pi].handles[0].Scan(p, nil, nil, 0)
			if err != nil {
				return err
			}
			if len(pairs) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 3 {
			t.Errorf("wanted >= 3 non-empty shards, got %d", nonEmpty)
		}
		got, err := ks.Scan(p, nil, nil, 0)
		if err != nil {
			return err
		}
		if len(got) != keys {
			t.Errorf("scan returned %d pairs, want %d", len(got), keys)
		}
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1].Key, got[i].Key) >= 0 {
				t.Fatalf("scan not strictly ordered at %d: %x >= %x", i, got[i-1].Key, got[i].Key)
			}
		}
		// Limited scan returns the global (not per-shard) smallest keys.
		top, err := ks.Scan(p, nil, nil, 10)
		if err != nil {
			return err
		}
		if len(top) != 10 {
			t.Fatalf("limited scan returned %d pairs", len(top))
		}
		for i := range top {
			if !bytes.Equal(top[i].Key, got[i].Key) {
				t.Fatalf("limited scan diverges from full scan at %d", i)
			}
		}
		a.Shutdown()
		return nil
	})
}

func TestMergeStreams(t *testing.T) {
	mk := func(ks ...byte) []nvme.KVPair {
		out := make([]nvme.KVPair, len(ks))
		for i, k := range ks {
			out[i] = nvme.KVPair{Key: []byte{k}}
		}
		return out
	}
	less := func(a, b nvme.KVPair) bool { return bytes.Compare(a.Key, b.Key) < 0 }
	got := mergeStreams([][]nvme.KVPair{mk(1, 4, 7), mk(2, 5), mk(0, 3, 6, 8)}, 0, less)
	want := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("merged %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Key[0] != w {
			t.Fatalf("merge order wrong at %d: %d != %d", i, got[i].Key[0], w)
		}
	}
	if n := len(mergeStreams([][]nvme.KVPair{mk(1, 4), mk(2)}, 2, less)); n != 2 {
		t.Fatalf("limit not applied: %d", n)
	}
}

// --- Replication and failover ---------------------------------------------

func TestReplicaFailoverOnInjectedFault(t *testing.T) {
	env := sim.NewEnv()
	opts := DefaultOptions()
	opts.Replicas = 2
	opts.ReadPreference = ReadPrimary
	opts.FailureThreshold = 1
	a := New(env, opts)
	const keys = 64
	run(t, env, func(p *sim.Proc) error {
		ks, err := a.CreateKeyspace(p, "repl")
		if err != nil {
			return err
		}
		primary := ks.Replicas(0)[0]
		for i := 0; i < keys; i++ {
			if err := ks.BulkPut(p, scaleKey(3, i), scaleValue(3, i, 32)); err != nil {
				return err
			}
		}
		if err := ks.Flush(p); err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		// Sanity read before the fault.
		if _, ok, err := ks.Get(p, scaleKey(3, 0)); err != nil || !ok {
			return fmt.Errorf("pre-fault get: ok=%v err=%v", ok, err)
		}
		// Break the primary's media for the next zone read. The read must
		// fail over to the replica and still return the value.
		a.Member(primary).Dev.SSD().InjectFault("zone-read", -1, 1)
		val, ok, err := ks.Get(p, scaleKey(3, 1))
		if err != nil {
			return fmt.Errorf("failover get: %v", err)
		}
		if !ok || !bytes.Equal(val, scaleValue(3, 1, 32)) {
			t.Errorf("failover get returned wrong value (ok=%v)", ok)
		}
		if !a.Member(primary).Healthy() {
			// threshold 1: the failed primary is now marked down.
		} else {
			t.Errorf("primary %d still healthy after injected fault", primary)
		}
		// Subsequent reads skip the down primary entirely — no re-arm needed.
		for i := 0; i < keys; i++ {
			v, ok, err := ks.Get(p, scaleKey(3, i))
			if err != nil || !ok || !bytes.Equal(v, scaleValue(3, i, 32)) {
				return fmt.Errorf("post-failover get %d: ok=%v err=%v", i, ok, err)
			}
		}
		// A successful read against the primary revives it.
		a.MarkUp(primary)
		if !a.Member(primary).Healthy() {
			t.Error("MarkUp did not revive the primary")
		}
		a.Shutdown()
		return nil
	})
}

// TestFaultIsolation is the 4-device isolation check: a media fault on one
// member must fail reads over to its replica and leave the other devices
// healthy and serving.
func TestFaultIsolation(t *testing.T) {
	env := sim.NewEnv()
	opts := DefaultOptions() // 4 devices, 2 replicas
	opts.ReadPreference = ReadPrimary
	opts.FailureThreshold = 1
	a := New(env, opts)
	const keys = 256
	run(t, env, func(p *sim.Proc) error {
		ks, err := a.CreateRangeSharded(p, "iso", 4)
		if err != nil {
			return err
		}
		for i := 0; i < keys; i++ {
			if err := ks.BulkPut(p, scaleKey(9, i), scaleValue(9, i, 48)); err != nil {
				return err
			}
		}
		if err := ks.Flush(p); err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		// Fault every future zone read on device 0 (enough for the whole
		// read phase: one arm per read, re-armed each time it fires).
		victim := 0
		for i := 0; i < keys; i++ {
			a.Member(victim).Dev.SSD().InjectFault("zone-read", -1, 1)
			v, ok, err := ks.Get(p, scaleKey(9, i))
			if err != nil || !ok || !bytes.Equal(v, scaleValue(9, i, 48)) {
				return fmt.Errorf("get %d during device-%d fault: ok=%v err=%v", i, victim, ok, err)
			}
		}
		for _, h := range a.Health() {
			if int(h.ID) == victim {
				if !h.Down {
					t.Errorf("victim device %d not marked down", victim)
				}
				continue
			}
			if h.Down || h.Failures != 0 {
				t.Errorf("device %d disturbed by device %d fault: %+v", h.ID, victim, h)
			}
		}
		a.Shutdown()
		return nil
	})
}

// --- Determinism of the scaling bench -------------------------------------

func TestScalingRunDeterministic(t *testing.T) {
	cfg := DefaultScalingConfig()
	cfg.Devices = 4
	cfg.Replicas = 2
	cfg.TotalKeys = 2048
	cfg.Queries = 256
	cfg.Trace = true
	cfg.Metrics = true
	capture := func() (string, string, *ScalingResult) {
		res, err := RunScaling(cfg)
		if err != nil {
			t.Fatalf("RunScaling: %v", err)
		}
		var trace bytes.Buffer
		if err := res.Tracer.WriteChromeTrace(&trace); err != nil {
			t.Fatalf("trace export: %v", err)
		}
		var reg bytes.Buffer
		if err := res.Registry.Dump(&reg); err != nil {
			t.Fatalf("registry dump: %v", err)
		}
		return trace.String(), reg.String(), res
	}
	t1, r1, res1 := capture()
	t2, r2, res2 := capture()
	if t1 != t2 {
		t.Fatal("Chrome traces differ between identical runs")
	}
	if r1 != r2 {
		t.Fatal("registry dumps differ between identical runs")
	}
	if res1.InsertTime != res2.InsertTime || res1.QueryTime != res2.QueryTime {
		t.Fatalf("virtual times differ: %v/%v vs %v/%v",
			res1.InsertTime, res1.QueryTime, res2.InsertTime, res2.QueryTime)
	}
	if len(t1) == 0 || res1.GetP99 <= 0 {
		t.Fatal("scaling run produced no trace or latency data")
	}
	if fmt.Sprint(res1.ShardMap) != fmt.Sprint(res2.ShardMap) {
		t.Fatal("shard maps differ between identical runs")
	}
}

// --- Secondary-index scatter-gather ---------------------------------------

func TestSecondaryQueryMergedAcrossShards(t *testing.T) {
	env := sim.NewEnv()
	opts := DefaultOptions()
	opts.Replicas = 1
	a := New(env, opts)
	const keys = 512
	mkVal := func(i int) []byte {
		v := make([]byte, 32)
		binary.LittleEndian.PutUint32(v, uint32(i%97))
		return v
	}
	run(t, env, func(p *sim.Proc) error {
		ks, err := a.CreateRangeSharded(p, "sec", 4)
		if err != nil {
			return err
		}
		for i := 0; i < keys; i++ {
			if err := ks.BulkPut(p, scaleKey(11, i), mkVal(i)); err != nil {
				return err
			}
		}
		if err := ks.Flush(p); err != nil {
			return err
		}
		spec := client.IndexSpec{Name: "f", Offset: 0, Length: 4, Type: keyenc.TypeUint32}
		if err := ks.CompactWithIndexes(p, []client.IndexSpec{spec}); err != nil {
			return err
		}
		if err := ks.WaitIndexBuilt(p, "f"); err != nil {
			return err
		}
		got, err := ks.QuerySecondaryRange(p, "f", nil, nil, 0)
		if err != nil {
			return err
		}
		if len(got) != keys {
			t.Errorf("secondary full range returned %d pairs, want %d", len(got), keys)
		}
		// Ordered by (normalized secondary, primary) across all shards.
		for i := 1; i < len(got); i++ {
			sa, _ := spec.Type.Normalize(got[i-1].Value[:4])
			sb, _ := spec.Type.Normalize(got[i].Value[:4])
			if c := bytes.Compare(sa, sb); c > 0 ||
				(c == 0 && bytes.Compare(got[i-1].Key, got[i].Key) >= 0) {
				t.Fatalf("secondary merge out of order at %d", i)
			}
		}
		a.Shutdown()
		return nil
	})
}

// --- Replication visibility -----------------------------------------------

// TestReplicatedWriteLandsOnAllReplicas checks the write fan-out: after a
// replicated load, each replica of a shard holds every pair of that shard.
func TestReplicatedWriteLandsOnAllReplicas(t *testing.T) {
	env := sim.NewEnv()
	opts := DefaultOptions()
	opts.Devices = 3
	opts.Replicas = 2
	a := New(env, opts)
	run(t, env, func(p *sim.Proc) error {
		ks, err := a.CreateKeyspace(p, "dup")
		if err != nil {
			return err
		}
		const keys = 128
		for i := 0; i < keys; i++ {
			if err := ks.BulkPut(p, scaleKey(5, i), scaleValue(5, i, 32)); err != nil {
				return err
			}
		}
		if err := ks.Flush(p); err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		pt := ks.parts[0]
		if len(pt.replicas) != 2 {
			t.Fatalf("wanted 2 replicas, got %v", pt.replicas)
		}
		for ri, h := range pt.handles {
			info, err := h.Info(p)
			if err != nil {
				return err
			}
			if info.Pairs != keys {
				t.Errorf("replica %d (dev %d) holds %d pairs, want %d",
					ri, pt.replicas[ri], info.Pairs, keys)
			}
		}
		a.Shutdown()
		return nil
	})
}
