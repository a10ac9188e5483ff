package bench

import (
	"fmt"
	"time"

	"kvcsd/internal/rocks"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
	"kvcsd/internal/workload"
)

// insertOutcome captures one insertion run plus its I/O statistics.
type insertOutcome struct {
	res workload.InsertResult
	st  *stats.IOStats
	// skew is the KV-CSD run's chan_skew cell, over the whole run.
	skew string
}

// runKVCSDInsert executes one KV-CSD insertion experiment on behalf of t.
func runKVCSDInsert(t *Table, hostCores int, cfg workload.InsertConfig) (insertOutcome, error) {
	data := int64(cfg.Threads*cfg.KeysPerThread) * int64(cfg.KeySize+cfg.ValueSize)
	rig := newKVCSDRig(hostCores, data, cfg.Seed)
	var out insertOutcome
	err := t.runSim(rig.env, func(p *sim.Proc) error {
		res, err := workload.RunInsert(p, rig.tgt, cfg)
		if err != nil {
			return err
		}
		out = insertOutcome{res: res, st: rig.st, skew: chanSkew(rig.dev.SSD(), nil)}
		rig.dev.Shutdown()
		return nil
	})
	return out, err
}

// runRocksInsert executes one baseline insertion experiment. LSM knobs are
// sized to the per-instance data so flushes and compactions occur at bench
// scale just as they do at paper scale.
func runRocksInsert(t *Table, hostCores int, mode rocks.CompactionMode, cfg workload.InsertConfig) (insertOutcome, error) {
	data := int64(cfg.Threads*cfg.KeysPerThread) * int64(cfg.KeySize+cfg.ValueSize)
	perInstance := data
	if !cfg.SharedKeyspace && cfg.Threads > 0 {
		perInstance = data / int64(cfg.Threads)
	}
	rig := newRocksRigPer(hostCores, mode, data, perInstance, cfg.Seed)
	var out insertOutcome
	err := t.runSim(rig.env, func(p *sim.Proc) error {
		res, err := workload.RunInsert(p, rig.tgt, cfg)
		if err != nil {
			return err
		}
		out = insertOutcome{res: res, st: rig.st}
		return closeRocks(p, rig.tgt, cfg)
	})
	return out, err
}

func closeRocks(p *sim.Proc, tgt *workload.RocksTarget, cfg workload.InsertConfig) error {
	seen := map[string]bool{}
	for t := 0; t < cfg.Threads; t++ {
		name := workload.KeyspaceNameFor(cfg, t)
		if seen[name] {
			continue
		}
		seen[name] = true
		if db := tgt.DB(name); db != nil {
			if err := db.Close(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fig7 reproduces Figures 7a and 7b: 32M (scaled) pairs into one shared
// keyspace with 1..32 application threads; KV-CSD with bulk puts + deferred
// compaction versus RocksDB with automatic compaction. The paper's claims:
// RocksDB needs all 32 cores to peak while KV-CSD peaks at ~2; KV-CSD is
// ~4.2x faster at 32 cores and ~7.9x at 2; RocksDB shows multifold extra
// storage I/O from compaction.
func Fig7(s Scale) (*Table, *Table, error) {
	a := &Table{
		Fig: "7a", Keys: []string{"threads"},
		Title:  "Figure 7a: time to insert keys into a single keyspace vs host CPU cores",
		Header: []string{"threads", "kvcsd_write_s", "rocksdb_write_s", "speedup", "kvcsd_compact_s"},
	}
	b := &Table{
		Fig: "7b", Keys: []string{"threads", "engine"},
		Title:  "Figure 7b: I/O statistics during insertion",
		Header: []string{"threads", "engine", "media_write", "media_read", "host_dev_xfer", "write_amp"},
	}
	for _, th := range s.Threads {
		keysPer := s.Fig7TotalKeys / th
		base := workload.InsertConfig{
			Threads: th, KeysPerThread: keysPer, KeySize: 16, ValueSize: 32,
			SharedKeyspace: true, Seed: s.Seed, KeyspacePrefix: "fig7",
		}
		kcfg := base
		kcfg.Bulk = true
		kv, err := runKVCSDInsert(a, th, kcfg)
		if err != nil {
			return nil, nil, fmt.Errorf("fig7 kvcsd t=%d: %w", th, err)
		}
		rk, err := runRocksInsert(a, th, rocks.CompactionAuto, base)
		if err != nil {
			return nil, nil, fmt.Errorf("fig7 rocks t=%d: %w", th, err)
		}
		a.Add(fmt.Sprint(th), secs(kv.res.WriteTime), secs(rk.res.WriteTime),
			ratio(rk.res.WriteTime, kv.res.WriteTime),
			secs(kv.res.ReadyTime-kv.res.WriteTime))
		for _, e := range []struct {
			name string
			st   *stats.IOStats
		}{{"kvcsd", kv.st}, {"rocksdb", rk.st}} {
			b.Add(fmt.Sprint(th), e.name,
				stats.HumanBytes(e.st.MediaWrite.Value()),
				stats.HumanBytes(e.st.MediaRead.Value()),
				stats.HumanBytes(e.st.HostToDevice.Value()+e.st.DeviceToHost.Value()),
				fmt.Sprintf("%.2f", e.st.WriteAmplification()))
		}
	}
	a.Notes = append(a.Notes,
		"kvcsd write time excludes device-side compaction (deferred+offloaded); kvcsd_compact_s is the async device window",
		"rocksdb write time includes waiting for background compaction to drain (paper methodology)")
	b.Notes = append(b.Notes, "host_dev_xfer for rocksdb counts block traffic to the drive; for kvcsd it is PCIe command/DMA traffic")
	b.VirtualEndNs = a.VirtualEndNs // both tables read the same runs
	return a, b, nil
}

// Fig8 reproduces Figure 8: value-size sweep at 32 threads. RocksDB runs
// with all host cores; KV-CSD runs with both 2 and 32 host cores to show the
// paper's point that 2 cores already saturate the device.
func Fig8(s Scale) (*Table, error) {
	t := &Table{
		Fig: "8", Keys: []string{"value_size"},
		Title:  "Figure 8: time to insert keys with different value sizes",
		Header: []string{"value_size", "rocksdb32_s", "kvcsd32_s", "kvcsd2_s", "speedup32", "speedup2"},
	}
	threads := 32
	for _, vs := range s.Fig8ValueSizes {
		keysPer := s.Fig8TotalKeys / threads
		base := workload.InsertConfig{
			Threads: threads, KeysPerThread: keysPer, KeySize: 16, ValueSize: vs,
			SharedKeyspace: true, Seed: s.Seed, KeyspacePrefix: "fig8",
		}
		kcfg := base
		kcfg.Bulk = true
		rk, err := runRocksInsert(t, 32, rocks.CompactionAuto, base)
		if err != nil {
			return nil, fmt.Errorf("fig8 rocks v=%d: %w", vs, err)
		}
		kv32, err := runKVCSDInsert(t, 32, kcfg)
		if err != nil {
			return nil, fmt.Errorf("fig8 kvcsd32 v=%d: %w", vs, err)
		}
		kv2, err := runKVCSDInsert(t, 2, kcfg)
		if err != nil {
			return nil, fmt.Errorf("fig8 kvcsd2 v=%d: %w", vs, err)
		}
		t.Add(fmt.Sprint(vs), secs(rk.res.WriteTime), secs(kv32.res.WriteTime), secs(kv2.res.WriteTime),
			ratio(rk.res.WriteTime, kv32.res.WriteTime), ratio(rk.res.WriteTime, kv2.res.WriteTime))
	}
	t.Notes = append(t.Notes, "paper: ~10x at 4KiB values; KV-CSD on 2 host cores still ~8.9x faster than RocksDB on 32")
	return t, nil
}

// Fig9 reproduces Figure 9: per-thread keyspaces, scaling keyspace count and
// data size, with RocksDB in all three compaction modes. Paper: at 32
// keyspaces KV-CSD is ~7.8x/6.1x/2.9x faster than auto/deferred/disabled.
func Fig9(s Scale) (*Table, error) {
	t := &Table{
		Fig: "9", Keys: []string{"keyspaces"},
		Title:  "Figure 9: insertion time as keyspace count and data size increase",
		Header: []string{"keyspaces", "kvcsd_s", "rocks_auto_s", "rocks_defer_s", "rocks_none_s", "vs_auto", "vs_defer", "vs_none", "chan_skew"},
	}
	for _, th := range s.Threads {
		base := workload.InsertConfig{
			Threads: th, KeysPerThread: s.Fig9KeysPerKeyspace, KeySize: 16, ValueSize: 32,
			Seed: s.Seed, KeyspacePrefix: "fig9",
		}
		kcfg := base
		kcfg.Bulk = true
		kv, err := runKVCSDInsert(t, th, kcfg)
		if err != nil {
			return nil, fmt.Errorf("fig9 kvcsd k=%d: %w", th, err)
		}
		times := map[rocks.CompactionMode]time.Duration{}
		for _, mode := range []rocks.CompactionMode{rocks.CompactionAuto, rocks.CompactionDeferred, rocks.CompactionDisabled} {
			rk, err := runRocksInsert(t, th, mode, base)
			if err != nil {
				return nil, fmt.Errorf("fig9 rocks %v k=%d: %w", mode, th, err)
			}
			times[mode] = rk.res.WriteTime
		}
		t.Add(fmt.Sprint(th), secs(kv.res.WriteTime),
			secs(times[rocks.CompactionAuto]), secs(times[rocks.CompactionDeferred]), secs(times[rocks.CompactionDisabled]),
			ratio(times[rocks.CompactionAuto], kv.res.WriteTime),
			ratio(times[rocks.CompactionDeferred], kv.res.WriteTime),
			ratio(times[rocks.CompactionDisabled], kv.res.WriteTime), kv.skew)
	}
	t.Notes = append(t.Notes, "each keyspace holds its own pairs (per-thread keyspace / per-thread RocksDB instance on shared ext4)",
		"chan_skew: the KV-CSD run's busiest NAND channel busy time over the mean, insert through compaction")
	return t, nil
}

// Fig10 reproduces Figures 10a and 10b: random GETs against data loaded into
// Fig10Keyspaces keyspaces, sweeping total query count; caches cold at the
// start of each run. Paper: KV-CSD up to ~1.3x faster; RocksDB improves with
// query count thanks to client-side caching; RocksDB reads far more bytes
// from storage than it returns (read inflation).
func Fig10(s Scale) (*Table, *Table, error) {
	a := &Table{
		Fig: "10a", Keys: []string{"queries"},
		Title:  "Figure 10a: time to execute random GET operations",
		Header: []string{"queries", "kvcsd_s", "rocksdb_s", "speedup", "kvcsd_p99_us", "rocks_p99_us", "chan_skew"},
	}
	b := &Table{
		Fig: "10b", Keys: []string{"queries", "engine"},
		Title:  "Figure 10b: GET-phase I/O statistics",
		Header: []string{"queries", "engine", "media_read", "app_read", "read_inflation", "cache_hit_rate", "chan_skew"},
	}
	ks := s.Fig10Keyspaces
	insert := workload.InsertConfig{
		Threads: ks, KeysPerThread: s.Fig10KeysPerKS, KeySize: 16, ValueSize: 32,
		Seed: s.Seed, KeyspacePrefix: "fig10",
	}
	data := int64(ks*s.Fig10KeysPerKS) * 48

	kv, err := fig10KVCSD(a, s)
	if err != nil {
		return nil, nil, err
	}

	rkRig := newRocksRig(32, rocks.CompactionAuto, data, s.Seed)
	rkTimes := map[int]sim.Duration{}
	rkP99 := map[int]sim.Duration{}
	rkIO := map[int][2]int64{}
	rkHit := map[int]float64{}
	rkSkew := map[int]string{}
	err = a.runSim(rkRig.env, func(p *sim.Proc) error {
		if _, err := workload.RunInsert(p, rkRig.tgt, insert); err != nil {
			return err
		}
		for _, q := range s.Fig10Queries {
			r0, a0 := rkRig.st.MediaRead.Value(), rkRig.st.AppRead.Value()
			h0, m0 := rkRig.st.CacheHits.Value(), rkRig.st.CacheMisses.Value()
			busy0 := rkRig.dev.ChannelBusyTimes(nil)
			res, err := workload.RunRandomGets(p, rkRig.tgt, workload.GetConfig{
				Threads: ks, QueriesPerThread: q / ks, KeysPerThread: s.Fig10KeysPerKS,
				KeySize: 16, Seed: s.Seed, QuerySeed: int64(q), KeyspacePrefix: "fig10",
			})
			if err != nil {
				return err
			}
			rkTimes[q] = res.QueryTime
			rkP99[q] = res.Latency.Quantile(0.99)
			rkIO[q] = [2]int64{rkRig.st.MediaRead.Value() - r0, rkRig.st.AppRead.Value() - a0}
			rkSkew[q] = chanSkew(rkRig.dev, busy0)
			dh := float64(rkRig.st.CacheHits.Value() - h0)
			dm := float64(rkRig.st.CacheMisses.Value() - m0)
			if dh+dm > 0 {
				rkHit[q] = dh / (dh + dm)
			}
		}
		return closeRocks(p, rkRig.tgt, insert)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fig10 rocks: %w", err)
	}

	for _, q := range s.Fig10Queries {
		k := kv[q]
		a.Add(fmt.Sprint(q), secs(k.time), secs(rkTimes[q]), ratio(rkTimes[q], k.time),
			fmt.Sprintf("%.1f", float64(k.p99)/1e3), fmt.Sprintf("%.1f", float64(rkP99[q])/1e3), k.skew)
		inflK := float64(0)
		if k.app > 0 {
			inflK = float64(k.media) / float64(k.app)
		}
		inflR := float64(0)
		if rkIO[q][1] > 0 {
			inflR = float64(rkIO[q][0]) / float64(rkIO[q][1])
		}
		b.Add(fmt.Sprint(q), "kvcsd", stats.HumanBytes(k.media), stats.HumanBytes(k.app),
			fmt.Sprintf("%.1f", inflK), "-", k.skew)
		b.Add(fmt.Sprint(q), "rocksdb", stats.HumanBytes(rkIO[q][0]), stats.HumanBytes(rkIO[q][1]),
			fmt.Sprintf("%.1f", inflR), fmt.Sprintf("%.2f", rkHit[q]), rkSkew[q])
	}
	a.Notes = append(a.Notes, "caches dropped before each query round; rocksdb block cache warms across a round (client-side caching)",
		"chan_skew: the KV-CSD device's busiest NAND channel busy time over the mean, during the round")
	b.Notes = append(b.Notes, "chan_skew: that engine's busiest NAND channel busy time over the mean, during the round")
	b.VirtualEndNs = a.VirtualEndNs // both tables read the same runs
	return a, b, nil
}

// kvGetRound is one Fig 10 query round on the KV-CSD rig.
type kvGetRound struct {
	time, p99  sim.Duration
	media, app int64 // bytes read from media and returned to the application
	skew       string
}

// fig10KVCSD loads Fig 10's keyspaces into one KV-CSD rig and runs every
// query round of the sweep on it, on behalf of t.
func fig10KVCSD(t *Table, s Scale) (map[int]kvGetRound, error) {
	ks := s.Fig10Keyspaces
	rig := newKVCSDRig(32, int64(ks*s.Fig10KeysPerKS)*48, s.Seed)
	out := map[int]kvGetRound{}
	err := t.runSim(rig.env, func(p *sim.Proc) error {
		if _, err := workload.RunInsert(p, rig.tgt, workload.InsertConfig{
			Threads: ks, KeysPerThread: s.Fig10KeysPerKS, KeySize: 16, ValueSize: 32,
			Seed: s.Seed, KeyspacePrefix: "fig10", Bulk: true,
		}); err != nil {
			return err
		}
		for _, q := range s.Fig10Queries {
			r0, a0 := rig.st.MediaRead.Value(), rig.st.AppRead.Value()
			busy0 := rig.dev.SSD().ChannelBusyTimes(nil)
			res, err := workload.RunRandomGets(p, rig.tgt, workload.GetConfig{
				Threads: ks, QueriesPerThread: q / ks, KeysPerThread: s.Fig10KeysPerKS,
				KeySize: 16, Seed: s.Seed, QuerySeed: int64(q), KeyspacePrefix: "fig10",
			})
			if err != nil {
				return err
			}
			out[q] = kvGetRound{
				time: res.QueryTime, p99: res.Latency.Quantile(0.99),
				media: rig.st.MediaRead.Value() - r0, app: rig.st.AppRead.Value() - a0,
				skew: chanSkew(rig.dev.SSD(), busy0),
			}
		}
		rig.dev.Shutdown()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig10 kvcsd: %w", err)
	}
	return out, nil
}
