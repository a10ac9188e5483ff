package bench

import (
	"fmt"
	"time"

	"kvcsd/internal/array"
)

// arrayDeviceSweep is the device-count axis of the array-scaling experiment.
var arrayDeviceSweep = []int{1, 2, 4, 8}

// ArrayScaling runs the multi-device scaling experiment: a fixed total key
// volume is loaded into a range-sharded keyspace over 1..maxDevices devices
// (replicas copies of every shard), then compacted by the fleet scheduler
// and queried. Near-linear insert speedup over the single-device row is the
// reproduction target; the write-amplification column shows the replication
// overhead (about R times the R=1 bytes).
func ArrayScaling(s Scale, maxDevices, replicas int) (*Table, error) {
	if maxDevices < 1 {
		maxDevices = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	t := &Table{
		Fig: "array", Keys: []string{"devices", "replicas"},
		Title: fmt.Sprintf("Array scaling: %d keys over 1..%d devices, R=%d (KV-CSD array)",
			s.ArrayTotalKeys, maxDevices, replicas),
		Header: []string{"devices", "replicas", "insert_s", "keys_per_s", "speedup", "get_p99_us", "media_wr_MiB", "write_amp"},
		Notes: []string{
			"fixed total volume; speedup is insert throughput vs the 1-device row",
			"write_amp = fleet media writes / logical bytes; replication multiplies it by ~R",
		},
	}
	logical := float64(s.ArrayTotalKeys) * float64(16+128)
	var base float64
	for _, d := range arrayDeviceSweep {
		if d > maxDevices {
			break
		}
		cfg := array.DefaultScalingConfig()
		cfg.Devices = d
		cfg.Replicas = replicas
		cfg.TotalKeys = s.ArrayTotalKeys
		cfg.Queries = s.ArrayQueries
		cfg.Seed = s.Seed
		res, err := array.RunScaling(cfg)
		if err != nil {
			return nil, fmt.Errorf("array scaling at %d devices: %w", d, err)
		}
		t.VirtualEndNs = append(t.VirtualEndNs, int64(res.VirtualEnd))
		if base == 0 {
			base = res.Throughput
		}
		speedup := 0.0
		if base > 0 {
			speedup = res.Throughput / base
		}
		mediaWr := res.Stats.MediaWrite.Value()
		t.Add(
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", res.Replicas),
			secs(res.InsertTime),
			fmt.Sprintf("%.0f", res.Throughput),
			fmt.Sprintf("%.1fx", speedup),
			fmt.Sprintf("%.1f", float64(res.GetP99)/float64(time.Microsecond)),
			fmt.Sprintf("%.1f", float64(mediaWr)/float64(1<<20)),
			fmt.Sprintf("%.1f", float64(mediaWr)/logical),
		)
	}
	return t, nil
}
