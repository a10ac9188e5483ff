package array

import (
	"bytes"
	"testing"

	"kvcsd/internal/compaction"
	"kvcsd/internal/device"
	"kvcsd/internal/sim"
)

// coldFleetOptions builds a small fleet whose devices carry a cold zone tier
// and a parallel compaction pipeline, sized so a few thousand puts span
// several zones per shard.
func coldFleetOptions() Options {
	opts := DefaultOptions()
	opts.Devices = 2
	opts.Replicas = 1
	opts.Metrics = true
	opts.MaxConcurrentCompactions = 1 // serialize admissions through the stagger
	d := device.DefaultOptions()
	d.SSD.ZoneSize = 256 << 10
	d.SSD.NumZones = 2048
	d.SSD.ColdZones = 512
	d.Engine.IngestBufferBytes = 16 << 10
	d.Engine.SortBudgetBytes = 64 << 10
	d.Engine.Compaction = compaction.Config{PipelineWidth: 4}
	d.Engine.ColdHeatThreshold = 1
	d.Engine.ColdMigrateBatch = 64
	opts.Device = d
	return opts
}

// Fleet compaction on cold-tiered devices runs the lifetime-aware placement
// sweep inside each device's admission window: never-read sorted zones move
// to the cold tier, the fleet gauge counts them, and reads still verify.
func TestFleetCompactionMigratesCold(t *testing.T) {
	env := sim.NewEnv()
	a := New(env, coldFleetOptions())
	const keys = 3000
	run(t, env, func(p *sim.Proc) error {
		ks, err := a.CreateRangeSharded(p, "tiers", 4)
		if err != nil {
			return err
		}
		for i := 0; i < keys; i++ {
			if err := ks.BulkPut(p, scaleKey(3, i), scaleValue(3, i, 64)); err != nil {
				return err
			}
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		moved := a.Registry().Gauge("array/cold_zones_migrated").Value()
		if moved <= 0 {
			t.Fatalf("fleet compaction migrated no zones to the cold tier")
		}
		for i := 0; i < keys; i += 97 {
			v, found, err := ks.Get(p, scaleKey(3, i))
			if err != nil || !found || !bytes.Equal(v, scaleValue(3, i, 64)) {
				t.Fatalf("get %d after cold migration: found=%v err=%v", i, found, err)
			}
		}
		a.Shutdown()
		return nil
	})
}

// The occupancy-aware stagger must hold the second device's admission while
// still letting every admission complete: two serialized device windows with
// pipelined compactions finish, and the pipelines report drained.
func TestOccupancyAwareStaggerCompletes(t *testing.T) {
	env := sim.NewEnv()
	a := New(env, coldFleetOptions())
	run(t, env, func(p *sim.Proc) error {
		ks, err := a.CreateRangeSharded(p, "staggered", 4)
		if err != nil {
			return err
		}
		for i := 0; i < 2400; i++ {
			if err := ks.BulkPut(p, scaleKey(4, i), scaleValue(4, i, 64)); err != nil {
				return err
			}
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		if a.admits < 2 {
			t.Fatalf("expected at least 2 staggered admissions, got %d", a.admits)
		}
		// The scheduler's own drain wait ran against the prior admission; by
		// completion every shard's pipeline must be empty.
		for _, pt := range ks.parts {
			for ri := range pt.replicas {
				pr, done, err := pt.handles[ri].CompactionProgress(p)
				if err != nil {
					return err
				}
				if !done || pr.Occupancy != 0 {
					t.Fatalf("shard %s replica %d: done=%v occupancy=%d", pt.name, ri, done, pr.Occupancy)
				}
			}
		}
		a.Shutdown()
		return nil
	})
}
