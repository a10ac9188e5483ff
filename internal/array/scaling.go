package array

import (
	"encoding/binary"
	"fmt"
	"time"

	"kvcsd/internal/device"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

// ScalingConfig parameterizes one array-scaling run: a fixed total workload
// spread over a varying device count, so throughput growth measures how
// close the fleet is to linear scaling.
type ScalingConfig struct {
	// Devices and Replicas size the array.
	Devices  int
	Replicas int
	// TotalKeys is the fixed total insert volume (split across devices).
	TotalKeys int
	// ValueBytes per pair (default 128).
	ValueBytes int
	// Writers is the number of concurrent client writer procs (default =
	// 4 per device, enough to overlap bulk-flush round trips with device
	// ingest so the sweep measures device bandwidth, not client latency).
	Writers int
	// Queries is the number of random point GETs after compaction.
	Queries int
	// Seed drives placement, per-device behavior, and the workload.
	Seed int64
	// NVMeOF attaches devices over NVMe-over-Fabrics.
	NVMeOF bool
	// Trace and Metrics enable fleet-wide observability for the run.
	Trace   bool
	Metrics bool
}

// DefaultScalingConfig returns a small, fast run (the bench default).
func DefaultScalingConfig() ScalingConfig {
	return ScalingConfig{
		Devices:    4,
		Replicas:   1,
		TotalKeys:  16384,
		ValueBytes: 128,
		Queries:    2048,
		Seed:       1,
	}
}

// ScalingResult reports one array-scaling run.
type ScalingResult struct {
	Devices  int
	Replicas int
	Keys     int

	// InsertTime covers bulk load + flush; CompactTime the fleet compaction
	// pass; QueryTime the GET phase.
	InsertTime  time.Duration
	CompactTime time.Duration
	QueryTime   time.Duration
	// Throughput is insert keys per virtual second.
	Throughput float64
	// GetP99 is the client-observed 99th-percentile GET latency.
	GetP99 time.Duration
	// VirtualEnd is the virtual clock at which the run's simulation stopped.
	VirtualEnd sim.Time

	// Stats is the fleet-wide sum; PerDevice the per-member blocks.
	Stats     *stats.IOStats
	PerDevice []*stats.IOStats

	// Registry and Tracer expose the run's observability (nil unless the
	// config enabled them).
	Registry *obs.Registry
	Tracer   *obs.Tracer

	// ShardMap is the placement, for determinism checks.
	ShardMap []string
}

// scalingSSDConfig sizes each member drive generously for its data share.
func scalingSSDConfig(dataBytes int64) ssd.Config {
	cfg := ssd.DefaultConfig()
	cfg.ZoneSize = 4 << 20
	need := int(dataBytes*8/cfg.ZoneSize) + 512
	if need < 2048 {
		need = 2048
	}
	cfg.NumZones = need
	return cfg
}

// RunScaling executes one array-scaling experiment in a fresh simulation:
// Writers concurrent clients bulk-load TotalKeys uniform pairs into one
// range-sharded keyspace (one partition per device), the fleet compaction
// scheduler sorts every shard, and Queries random GETs measure read latency.
// Everything is derived from Seed, so two runs with equal configs produce
// byte-identical traces.
func RunScaling(cfg ScalingConfig) (*ScalingResult, error) {
	if cfg.Devices < 1 {
		cfg.Devices = 1
	}
	if cfg.ValueBytes <= 0 {
		cfg.ValueBytes = 128
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 4 * cfg.Devices
	}
	env := sim.NewEnv()
	perDevBytes := int64(cfg.TotalKeys) * int64(16+cfg.ValueBytes) / int64(cfg.Devices)
	dopts := device.DefaultOptions()
	dopts.SSD = scalingSSDConfig(perDevBytes * int64(cfg.Replicas))
	dopts.Engine.SortBudgetBytes = 4 << 20
	aopts := Options{
		Devices:                  cfg.Devices,
		Replicas:                 cfg.Replicas,
		Seed:                     cfg.Seed,
		Device:                   dopts,
		NVMeOF:                   cfg.NVMeOF,
		ReadPreference:           ReadRoundRobin,
		FailureThreshold:         3,
		MaxConcurrentCompactions: maxInt(2, (cfg.Devices+1)/2),
		CompactionStagger:        100 * time.Microsecond,
		Trace:                    cfg.Trace,
		Metrics:                  cfg.Metrics,
	}
	a := New(env, aopts)
	res := &ScalingResult{
		Devices:  cfg.Devices,
		Replicas: a.Options().Replicas,
		Keys:     cfg.TotalKeys,
		Registry: a.Registry(),
		Tracer:   a.Tracer(),
	}
	getHist := stats.NewHistogram("array/get")
	err := runMaster(env, func(p *sim.Proc) error {
		ks, err := a.CreateRangeSharded(p, "scale", cfg.Devices)
		if err != nil {
			return err
		}
		res.ShardMap = ks.ShardMap()

		// Insert phase: Writers concurrent procs, interleaved key ranges.
		t0 := p.Now()
		werrs := make([]error, cfg.Writers)
		procs := make([]*sim.Proc, cfg.Writers)
		for w := 0; w < cfg.Writers; w++ {
			w := w
			procs[w] = env.Go(fmt.Sprintf("writer-%d", w), func(q *sim.Proc) {
				for i := w; i < cfg.TotalKeys; i += cfg.Writers {
					key := scaleKey(cfg.Seed, i)
					val := scaleValue(cfg.Seed, i, cfg.ValueBytes)
					if err := ks.BulkPut(q, key, val); err != nil {
						werrs[w] = err
						return
					}
				}
			})
		}
		p.Join(procs...)
		for _, e := range werrs {
			if e != nil {
				return e
			}
		}
		if err := ks.Flush(p); err != nil {
			return err
		}
		res.InsertTime = time.Duration(p.Now() - t0)

		// Fleet compaction pass (admission-gated, staggered).
		t1 := p.Now()
		if err := ks.Compact(p); err != nil {
			return err
		}
		res.CompactTime = time.Duration(p.Now() - t1)

		// Query phase: random GETs over the loaded population.
		t2 := p.Now()
		rng := sim.NewRNG(cfg.Seed ^ 0x5EED)
		for q := 0; q < cfg.Queries; q++ {
			i := int(rng.Uint64() % uint64(maxInt(cfg.TotalKeys, 1)))
			g0 := p.Now()
			_, ok, err := ks.Get(p, scaleKey(cfg.Seed, i))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("array scaling: key %d missing after compaction", i)
			}
			getHist.Record(time.Duration(p.Now() - g0))
		}
		res.QueryTime = time.Duration(p.Now() - t2)
		a.Shutdown()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.VirtualEnd = env.Now()
	if res.InsertTime > 0 {
		res.Throughput = float64(cfg.TotalKeys) / res.InsertTime.Seconds()
	}
	res.GetP99 = getHist.Quantile(0.99)
	res.Stats = a.Stats()
	for _, m := range a.Members() {
		res.PerDevice = append(res.PerDevice, m.Stats)
	}
	return res, nil
}

// runMaster executes fn as the master process of a fresh simulation.
func runMaster(env *sim.Env, fn func(p *sim.Proc) error) error {
	var err error
	env.Go("experiment", func(p *sim.Proc) { err = fn(p) })
	env.Run()
	return err
}

// scaleKey derives the i-th workload key (16 bytes, uniform prefix).
func scaleKey(seed int64, i int) []byte {
	k := make([]byte, 16)
	x := scaleMix(uint64(seed)<<32 ^ uint64(i))
	binary.BigEndian.PutUint64(k, x)
	binary.BigEndian.PutUint64(k[8:], uint64(i))
	return k
}

// scaleValue derives the value for key i.
func scaleValue(seed int64, i, size int) []byte {
	v := make([]byte, size)
	x := scaleMix(uint64(seed)<<33 ^ uint64(i) ^ 0xABCD)
	for j := 0; j < size; j += 8 {
		for b := 0; b < 8 && j+b < size; b++ {
			v[j+b] = byte(x >> (8 * uint(b)))
		}
		x = scaleMix(x)
	}
	return v
}

// scaleMix is a splitmix64 step.
func scaleMix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
