package core

import (
	"bytes"
	"errors"
	"testing"

	"kvcsd/internal/compaction"
	"kvcsd/internal/host"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

// newSplitFixture is newEngineFixture with a caller-shaped SSD config
// (cold-tier tests need extra zones and tier factors).
func newSplitFixture(cfg Config, shape func(*ssd.Config)) *engineFixture {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	scfg := ssd.DefaultConfig()
	scfg.ZoneSize = 256 << 10
	scfg.NumZones = 1024
	if shape != nil {
		shape(&scfg)
	}
	dev := ssd.New(env, scfg, st)
	soc := host.New(env, host.DefaultSoCConfig())
	eng := NewEngine(env, dev, soc, cfg, sim.NewRNG(11), st)
	return &engineFixture{env: env, dev: dev, soc: soc, st: st, eng: eng}
}

// startHostAssist runs a host-side merge loop against the engine's assist
// queue, modelling the client's ServeHostMerges goroutine. Call
// eng.CloseAssist() to let it exit.
func startHostAssist(fx *engineFixture, fail bool) {
	q := fx.eng.AssistQueue()
	fx.env.Go("hostmerge", func(p *sim.Proc) {
		hcpu := host.New(fx.env, host.DefaultSoCConfig())
		for {
			job, ok := q.Poll(p, 0)
			if !ok {
				return
			}
			if fail {
				q.Complete(job.ID, nil, errors.New("host merge crashed"))
				continue
			}
			runs, err := compaction.DecodeRuns(job.Payload)
			if err != nil {
				q.Complete(job.ID, nil, err)
				continue
			}
			merged, err := MergeEncodedKlogRuns(p, hcpu, runs)
			q.Complete(job.ID, merged, err)
		}
	})
}

func verifyAll(t *testing.T, p *sim.Proc, fx *engineFixture, ks string, n int) {
	t.Helper()
	for i := 0; i < n; i += 97 {
		val, ok, err := fx.eng.Get(p, ks, tkey(i))
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if want := tvalue(i, float32(i)); !bytes.Equal(val, want) {
			t.Fatalf("get %d: wrong value", i)
		}
	}
}

func TestCollaborativeCompactionSplit(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.Compaction = compaction.Config{Policy: compaction.PolicyCollaborative, PipelineWidth: 4}
	fx := newSplitFixture(cfg, nil)
	startHostAssist(fx, false)
	fx.run(t, func(p *sim.Proc) {
		defer fx.eng.CloseAssist()
		const n = 4000
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i) })
		compactAndWait(t, p, fx, "ks")
		pr, err := fx.eng.Progress("ks")
		if err != nil {
			t.Fatal(err)
		}
		if pr.HostRuns == 0 || pr.DeviceRuns == 0 {
			t.Fatalf("collaborative split did not engage: host=%d device=%d", pr.HostRuns, pr.DeviceRuns)
		}
		if pr.BytesMoved == 0 {
			t.Fatal("no bytes accounted")
		}
		if pr.Occupancy != 0 {
			t.Fatalf("pipeline occupancy did not drain: %d", pr.Occupancy)
		}
		verifyAll(t, p, fx, "ks", n)
	})
	if got := fx.eng.PipelineOccupancy(); got != 0 {
		t.Fatalf("global pipeline occupancy %d after drain", got)
	}
}

func TestHostOnlyCompactionPolicy(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.Compaction.Policy = compaction.PolicyHost
	fx := newSplitFixture(cfg, nil)
	startHostAssist(fx, false)
	fx.run(t, func(p *sim.Proc) {
		defer fx.eng.CloseAssist()
		const n = 4000
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i) })
		compactAndWait(t, p, fx, "ks")
		pr, _ := fx.eng.Progress("ks")
		if pr.HostRuns == 0 || pr.DeviceRuns != 0 {
			t.Fatalf("host policy split: host=%d device=%d", pr.HostRuns, pr.DeviceRuns)
		}
		verifyAll(t, p, fx, "ks", n)
	})
}

// A host assist loop that errors every job must not fail compaction: the
// sorter falls back to merging the host group on the device.
func TestHostAssistFailureFallsBack(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.Compaction.Policy = compaction.PolicyCollaborative
	fx := newSplitFixture(cfg, nil)
	startHostAssist(fx, true)
	fx.run(t, func(p *sim.Proc) {
		defer fx.eng.CloseAssist()
		const n = 4000
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i) })
		compactAndWait(t, p, fx, "ks")
		pr, _ := fx.eng.Progress("ks")
		if pr.HostRuns != 0 {
			t.Fatalf("failed assist still recorded %d host runs", pr.HostRuns)
		}
		verifyAll(t, p, fx, "ks", n)
	})
}

// Without an attached assist loop the planner must fall back to device-only
// merging regardless of policy.
func TestNoAssistLoopMeansDeviceOnly(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.Compaction.Policy = compaction.PolicyHost
	fx := newSplitFixture(cfg, nil)
	fx.run(t, func(p *sim.Proc) {
		const n = 2000
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i) })
		compactAndWait(t, p, fx, "ks")
		pr, _ := fx.eng.Progress("ks")
		if pr.HostRuns != 0 {
			t.Fatalf("unattached queue produced %d host runs", pr.HostRuns)
		}
		verifyAll(t, p, fx, "ks", n)
	})
}

// The parallel device pipeline must not change results and should finish the
// same compaction no slower than the sequential path.
func TestPipelineCompactionWallTime(t *testing.T) {
	elapse := func(width int) sim.Duration {
		cfg := smallEngineConfig()
		cfg.Compaction.PipelineWidth = width
		fx := newSplitFixture(cfg, nil)
		var dur sim.Duration
		fx.run(t, func(p *sim.Proc) {
			const n = 6000
			ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i) })
			compactAndWait(t, p, fx, "ks")
			ks, _ := fx.eng.Keyspace("ks")
			dur = ks.CompactionDuration()
			verifyAll(t, p, fx, "ks", n)
		})
		return dur
	}
	seq := elapse(1)
	par := elapse(4)
	if par > seq {
		t.Fatalf("pipelined compaction slower than sequential: %v > %v", par, seq)
	}
}

// Foreground point reads against an already-compacted keyspace must stay
// fast while a pipelined compaction of another keyspace saturates the device.
func TestForegroundLatencyDuringPipelineCompaction(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.Compaction.PipelineWidth = 4
	fx := newSplitFixture(cfg, nil)
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "hot", 1000, func(i int) float32 { return float32(i) })
		compactAndWait(t, p, fx, "hot")
		if err := fx.eng.CreateKeyspace(p, "bulk"); err != nil {
			t.Fatal(err)
		}
		var keys, vals [][]byte
		for i := 0; i < 6000; i++ {
			keys = append(keys, tkey(i))
			vals = append(vals, tvalue(i, float32(i)))
		}
		if err := fx.eng.BulkPutKV(p, "bulk", keys, vals); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.Compact(p, "bulk"); err != nil {
			t.Fatal(err)
		}
		var worst sim.Duration
		overlapped := false
		for i := 0; i < 200; i++ {
			if fx.eng.BackgroundJobs() > 0 {
				overlapped = true
			}
			start := p.Now()
			if _, ok, err := fx.eng.Get(p, "hot", tkey(i%1000)); err != nil || !ok {
				t.Fatalf("get during compaction: ok=%v err=%v", ok, err)
			}
			if d := sim.Duration(p.Now() - start); d > worst {
				worst = d
			}
			p.Sleep(sim.Duration(200_000)) // 200µs between probes
		}
		if !overlapped {
			t.Fatal("probes never overlapped the background compaction")
		}
		if limit := sim.Duration(50_000_000); worst > limit {
			t.Fatalf("foreground read p100 %v exceeds %v during pipelined compaction", worst, limit)
		}
		if err := fx.eng.WaitCompacted(p, "bulk"); err != nil {
			t.Fatal(err)
		}
	})
}

// Cold migration: untouched sorted-value zones move to the cold tier after a
// decay cycle, reads stay correct, and heated zones stay put.
func TestColdMigration(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.ColdHeatThreshold = 1
	cfg.ColdMigrateBatch = 64
	fx := newSplitFixture(cfg, func(sc *ssd.Config) {
		sc.ColdZones = 64
		sc.ColdReadFactor = 4
		sc.ColdWriteFactor = 4
	})
	fx.run(t, func(p *sim.Proc) {
		const n = 3000
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i) })
		compactAndWait(t, p, fx, "ks")
		// Heat every granule: a full scan touches the whole value range.
		if _, err := fx.eng.RangePrimary(p, "ks", nil, nil, 0, func(Pair) bool { return true }); err != nil {
			t.Fatal(err)
		}
		moved, err := fx.eng.MigrateCold(p)
		if err != nil {
			t.Fatal(err)
		}
		if moved != 0 {
			t.Fatalf("hot zones migrated: %d", moved)
		}
		// The sweep decayed heat to zero; the next sweep finds everything cold.
		capBefore := fx.eng.zm.ColdCapacity()
		moved, err = fx.eng.MigrateCold(p)
		if err != nil {
			t.Fatal(err)
		}
		if moved == 0 {
			t.Fatal("cold sweep moved nothing")
		}
		if got := fx.eng.zm.ColdCapacity(); got != capBefore-moved {
			t.Fatalf("cold capacity %d, want %d", got, capBefore-moved)
		}
		ks, _ := fx.eng.Keyspace("ks")
		onCold := 0
		for _, stripe := range ks.sorted.stripes {
			for _, z := range stripe {
				if fx.eng.zm.IsColdZone(z) {
					onCold++
				}
			}
		}
		if onCold != moved {
			t.Fatalf("%d sorted zones on cold tier, moved %d", onCold, moved)
		}
		verifyAll(t, p, fx, "ks", n)
	})
}

// A device without a configured cold tier must report zero migrations.
func TestColdMigrationDisabled(t *testing.T) {
	fx := newSplitFixture(smallEngineConfig(), nil)
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", 1000, func(i int) float32 { return float32(i) })
		compactAndWait(t, p, fx, "ks")
		moved, err := fx.eng.MigrateCold(p)
		if err != nil || moved != 0 {
			t.Fatalf("migrate on tierless device: moved=%d err=%v", moved, err)
		}
	})
}

// Cold migration must survive recovery: the snapshot written before the old
// zones are released is what a restart reads back.
func TestColdMigrationPersists(t *testing.T) {
	cfg := smallEngineConfig()
	cfg.ColdHeatThreshold = 1
	cfg.ColdMigrateBatch = 64
	fx := newSplitFixture(cfg, func(sc *ssd.Config) {
		sc.ColdZones = 64
	})
	fx.run(t, func(p *sim.Proc) {
		const n = 2000
		ingestN(t, p, fx, "ks", n, func(i int) float32 { return float32(i) })
		compactAndWait(t, p, fx, "ks")
		// Never read since compaction: the first sweep already finds every
		// sorted zone cold.
		moved, err := fx.eng.MigrateCold(p)
		if err != nil {
			t.Fatal(err)
		}
		if moved == 0 {
			t.Fatal("nothing migrated")
		}
		// Rebuild an engine over the same device and recover.
		eng2 := NewEngine(fx.env, fx.dev, fx.soc, cfg, sim.NewRNG(7), fx.st)
		if err := eng2.Recover(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 131 {
			val, ok, err := eng2.Get(p, "ks", tkey(i))
			if err != nil || !ok {
				t.Fatalf("recovered get %d: ok=%v err=%v", i, ok, err)
			}
			if want := tvalue(i, float32(i)); !bytes.Equal(val, want) {
				t.Fatalf("recovered get %d: wrong value", i)
			}
		}
	})
}
