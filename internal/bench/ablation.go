package bench

import (
	"fmt"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/pcie"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
	"kvcsd/internal/workload"
)

// Ablations quantify the design choices DESIGN.md calls out: bulk PUT
// batching, key-value separation, zone-cluster striping, deferred
// compaction, and the SoC DRAM sort budget.

// Ablations lists every ablation in the order kvcsd-bench prints them.
var Ablations = []func(Scale) (*Table, error){
	AblationBulkPut,
	AblationKVSeparation,
	AblationStriping,
	AblationDeferredCompaction,
	AblationSortBudget,
	AblationIngestBuffer,
	AblationConsolidatedIndexing,
	AblationRemoteAccess,
}

// AblationBulkPut compares regular PUTs with 128 KiB bulk PUTs (paper: bulk
// messages are ~7x faster).
func AblationBulkPut(s Scale) (*Table, error) {
	t := &Table{
		Fig: "ablation-bulk-put", Keys: []string{"mode"},
		Title:  "Ablation: regular PUT vs 128KiB bulk PUT",
		Header: []string{"mode", "keys", "write_s", "cmds", "speedup"},
	}
	keys := s.Fig7TotalKeys / 4
	var times [2]time.Duration
	var cmds [2]int64
	for i, bulk := range []bool{false, true} {
		cfg := workload.InsertConfig{
			Threads: 4, KeysPerThread: keys / 4, KeySize: 16, ValueSize: 32,
			Bulk: bulk, Seed: s.Seed, KeyspacePrefix: "abl-bulk",
		}
		out, err := runKVCSDInsert(t, 4, cfg)
		if err != nil {
			return nil, err
		}
		times[i] = out.res.WriteTime
		cmds[i] = out.st.Commands.Value()
	}
	t.Add("regular", fmt.Sprint(keys), secs(times[0]), fmt.Sprint(cmds[0]), "1.0x")
	t.Add("bulk", fmt.Sprint(keys), secs(times[1]), fmt.Sprint(cmds[1]), ratio(times[0], times[1]))
	return t, nil
}

// AblationKVSeparation compares separated KLOG/VLOG compaction (two-step
// sort, values move twice) with combined pair records (values ride through
// every merge round).
func AblationKVSeparation(s Scale) (*Table, error) {
	t := &Table{
		Fig: "ablation-kv-separation", Keys: []string{"layout"},
		Title:  "Ablation: key-value separation vs combined pair records",
		Header: []string{"layout", "value_size", "compact_s", "media_write", "media_read"},
	}
	for _, vs := range []int{32, 512} {
		for _, disable := range []bool{false, true} {
			keys := s.Fig7TotalKeys / 4
			data := int64(keys) * int64(16+vs)
			rig := newKVCSDRigWith(32, data*2, s.Seed, func(o *device.Options) {
				o.Engine.DisableKVSeparation = disable
				o.Engine.SortBudgetBytes = int(data / 24)
				if o.Engine.SortBudgetBytes < 16<<10 {
					o.Engine.SortBudgetBytes = 16 << 10
				}
				o.Engine.MergeFanin = 4
			})
			var compactDur time.Duration
			var mw, mr int64
			err := t.runSim(rig.env, func(p *sim.Proc) error {
				cfg := workload.InsertConfig{
					Threads: 1, KeysPerThread: keys, KeySize: 16, ValueSize: vs,
					Bulk: true, Seed: s.Seed, KeyspacePrefix: "abl-sep",
				}
				res, err := workload.RunInsert(p, rig.tgt, cfg)
				if err != nil {
					return err
				}
				compactDur = res.ReadyTime - res.WriteTime
				mw, mr = rig.st.MediaWrite.Value(), rig.st.MediaRead.Value()
				rig.dev.Shutdown()
				return nil
			})
			if err != nil {
				return nil, err
			}
			layout := "separated"
			if disable {
				layout = "combined"
			}
			t.Add(layout, fmt.Sprint(vs), secs(compactDur),
				stats.HumanBytes(mw), stats.HumanBytes(mr))
		}
	}
	t.Notes = append(t.Notes, "separated: values move exactly twice (bucket sort); combined: values ride every merge round")
	return t, nil
}

// AblationStriping compares zone-cluster stripe widths: width 1 serializes a
// keyspace's writes on one channel; wider stripes spread them (paper §IV,
// random-offset striping over SSD channels).
func AblationStriping(s Scale) (*Table, error) {
	t := &Table{
		Fig: "ablation-striping", Keys: []string{"stripe_width"},
		Title:  "Ablation: zone-cluster stripe width (channel parallelism)",
		Header: []string{"stripe_width", "write_s", "ready_s"},
	}
	keys := s.Fig7TotalKeys
	for _, w := range []int{1, 2, 4, 8} {
		data := int64(keys) * 48
		rig := newKVCSDRigWith(32, data*2, s.Seed, func(o *device.Options) {
			o.Engine.StripeWidth = w
		})
		var res workload.InsertResult
		err := t.runSim(rig.env, func(p *sim.Proc) error {
			var err error
			res, err = workload.RunInsert(p, rig.tgt, workload.InsertConfig{
				Threads: 8, KeysPerThread: keys / 8, KeySize: 16, ValueSize: 128,
				SharedKeyspace: true, Bulk: true, Seed: s.Seed, KeyspacePrefix: "abl-stripe",
			})
			rig.dev.Shutdown()
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprint(w), secs(res.WriteTime), secs(res.ReadyTime))
	}
	return t, nil
}

// AblationDeferredCompaction contrasts the host-visible cost of deferred
// (async, device-side) compaction with synchronously waiting for it — the
// effective write time gap of Figure 11.
func AblationDeferredCompaction(s Scale) (*Table, error) {
	t := &Table{
		Fig: "ablation-deferred-compaction", Keys: []string{"policy"},
		Title:  "Ablation: deferred (async) vs awaited device compaction",
		Header: []string{"policy", "host_visible_s", "total_to_queryable_s"},
	}
	cfg := workload.InsertConfig{
		Threads: 8, KeysPerThread: s.Fig7TotalKeys / 8, KeySize: 16, ValueSize: 32,
		Bulk: true, Seed: s.Seed, KeyspacePrefix: "abl-defer",
	}
	out, err := runKVCSDInsert(t, 8, cfg)
	if err != nil {
		return nil, err
	}
	t.Add("deferred(async)", secs(out.res.WriteTime), secs(out.res.ReadyTime))
	t.Add("awaited(sync)", secs(out.res.ReadyTime), secs(out.res.ReadyTime))
	t.Notes = append(t.Notes, "a checkpointing application overlaps the async window with its next compute phase")
	return t, nil
}

// AblationSortBudget sweeps the SoC DRAM sort budget, showing the merge-round
// versus DRAM trade-off of the external sort (paper §V: rounds "depend on
// available SoC DRAM space").
func AblationSortBudget(s Scale) (*Table, error) {
	t := &Table{
		Fig: "ablation-sort-budget", Keys: []string{"budget"},
		Title:  "Ablation: SoC DRAM sort budget vs device compaction time",
		Header: []string{"budget", "compact_s"},
	}
	keys := s.Fig7TotalKeys
	data := int64(keys) * 48
	for _, budget := range []int{16 << 10, 64 << 10, 256 << 10, 4 << 20} {
		rig := newKVCSDRigWith(32, data*2, s.Seed, func(o *device.Options) {
			o.Engine.SortBudgetBytes = budget
			o.Engine.MergeFanin = 8
		})
		var res workload.InsertResult
		err := t.runSim(rig.env, func(p *sim.Proc) error {
			var err error
			res, err = workload.RunInsert(p, rig.tgt, workload.InsertConfig{
				Threads: 1, KeysPerThread: keys, KeySize: 16, ValueSize: 32,
				Bulk: true, Seed: s.Seed, KeyspacePrefix: "abl-budget",
			})
			rig.dev.Shutdown()
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(stats.HumanBytes(int64(budget)), secs(res.ReadyTime-res.WriteTime))
	}
	return t, nil
}

// AblationIngestBuffer sweeps the device ingest buffer (paper: 192 KiB).
func AblationIngestBuffer(s Scale) (*Table, error) {
	t := &Table{
		Fig: "ablation-ingest-buffer", Keys: []string{"buffer"},
		Title:  "Ablation: device ingest buffer size",
		Header: []string{"buffer", "write_s"},
	}
	keys := s.Fig7TotalKeys
	for _, buf := range []int{16 << 10, 64 << 10, 192 << 10, 1 << 20} {
		data := int64(keys) * 48
		rig := newKVCSDRigWith(32, data*2, s.Seed, func(o *device.Options) {
			o.Engine.IngestBufferBytes = buf
		})
		var res workload.InsertResult
		err := t.runSim(rig.env, func(p *sim.Proc) error {
			var err error
			res, err = workload.RunInsert(p, rig.tgt, workload.InsertConfig{
				Threads: 4, KeysPerThread: keys / 4, KeySize: 16, ValueSize: 32,
				SharedKeyspace: true, Bulk: true, Seed: s.Seed, KeyspacePrefix: "abl-buf",
			})
			rig.dev.Shutdown()
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(stats.HumanBytes(int64(buf)), secs(res.WriteTime))
	}
	return t, nil
}

// AblationConsolidatedIndexing compares building N secondary indexes
// separately (compaction, then one full keyspace read-back per index — the
// paper's current design, requested once the compaction has finished) against
// the consolidated single-pass construction the paper proposes as future
// work.
func AblationConsolidatedIndexing(s Scale) (*Table, error) {
	t := &Table{
		Fig: "ablation-consolidated-indexing", Keys: []string{"strategy"},
		Title:  "Ablation: separate vs consolidated secondary index construction",
		Header: []string{"strategy", "indexes", "device_busy_s", "media_read", "media_write"},
	}
	specs := []client.IndexSpec{
		{Name: "a", Offset: 0, Length: 4, Type: keyenc.TypeBytes},
		{Name: "b", Offset: 8, Length: 4, Type: keyenc.TypeBytes},
		{Name: "c", Offset: 16, Length: 4, Type: keyenc.TypeBytes},
	}
	keys := s.Fig7TotalKeys
	for _, consolidated := range []bool{false, true} {
		data := int64(keys) * 48
		rig := newKVCSDRig(32, data*2, s.Seed)
		var busy time.Duration
		var mr, mw int64
		err := t.runSim(rig.env, func(p *sim.Proc) error {
			cl := client.New(rig.h, rig.dev)
			ks, err := cl.CreateKeyspace(p, "abl-con")
			if err != nil {
				return err
			}
			val := make([]byte, 32)
			for i := 0; i < keys; i++ {
				copy(val, workloadValue(i))
				if err := ks.BulkPut(p, workloadKey(i), val); err != nil {
					return err
				}
			}
			t0 := p.Now()
			if consolidated {
				if err := ks.CompactWithIndexes(p, specs); err != nil {
					return err
				}
			} else {
				// Waiting keeps the builds off the compaction: a build
				// requested while it runs would join its value pass.
				if err := ks.Compact(p); err != nil {
					return err
				}
				if err := ks.WaitCompacted(p); err != nil {
					return err
				}
				for _, sp := range specs {
					if err := ks.BuildSecondaryIndex(p, sp); err != nil {
						return err
					}
				}
			}
			if err := rig.dev.WaitBackgroundIdle(p); err != nil {
				return err
			}
			busy = time.Duration(p.Now() - t0)
			mr, mw = rig.st.MediaRead.Value(), rig.st.MediaWrite.Value()
			rig.dev.Shutdown()
			return nil
		})
		if err != nil {
			return nil, err
		}
		name := "separate"
		if consolidated {
			name = "consolidated"
		}
		t.Add(name, fmt.Sprint(len(specs)), secs(busy),
			stats.HumanBytes(mr), stats.HumanBytes(mw))
	}
	t.Notes = append(t.Notes,
		"consolidated extraction happens during the compaction's own value pass (paper §V future work)",
		"media reads drop (no per-index keyspace read-back), and the consolidated indexes sort and pack in parallel on the SoC cores as separate builds do, so device time drops too")
	return t, nil
}

// AblationRemoteAccess contrasts local PCIe attachment with the paper's
// envisioned NVMe-over-Fabrics remote deployment (§II, Figure 2): command
// latency rises with fabric round trips, but offloaded queries still move
// only results — the data-movement advantage grows when the wire is slower.
func AblationRemoteAccess(s Scale) (*Table, error) {
	t := &Table{
		Fig: "ablation-remote-access", Keys: []string{"link"},
		Title:  "Ablation: local PCIe vs NVMe-over-Fabrics attachment",
		Header: []string{"link", "insert_s", "get_p99_us", "scan1k_s"},
	}
	keys := s.Fig7TotalKeys
	for _, remote := range []bool{false, true} {
		data := int64(keys) * 48
		rig := newKVCSDRigWith(32, data*2, s.Seed, func(o *device.Options) {
			if remote {
				o.Link = pcie.NVMeOFConfig()
			}
		})
		var insert time.Duration
		var p99 time.Duration
		var scanDur time.Duration
		err := t.runSim(rig.env, func(p *sim.Proc) error {
			cfg := workload.InsertConfig{
				Threads: 8, KeysPerThread: keys / 8, KeySize: 16, ValueSize: 32,
				Bulk: true, Seed: s.Seed, KeyspacePrefix: "abl-remote",
			}
			res, err := workload.RunInsert(p, rig.tgt, cfg)
			if err != nil {
				return err
			}
			insert = res.WriteTime
			q, err := workload.RunRandomGets(p, rig.tgt, workload.GetConfig{
				Threads: 8, QueriesPerThread: 64, KeysPerThread: cfg.KeysPerThread,
				KeySize: 16, Seed: s.Seed, QuerySeed: 9, KeyspacePrefix: "abl-remote",
			})
			if err != nil {
				return err
			}
			p99 = q.Latency.Quantile(0.99)
			cl := client.New(rig.h, rig.dev)
			ks, err := cl.OpenKeyspace(p, "abl-remote-0")
			if err != nil {
				return err
			}
			t0 := p.Now()
			if _, err := ks.Scan(p, nil, nil, 1000); err != nil {
				return err
			}
			scanDur = time.Duration(p.Now() - t0)
			rig.dev.Shutdown()
			return nil
		})
		if err != nil {
			return nil, err
		}
		name := "pcie-gen3x16"
		if remote {
			name = "nvmeof-100gbe"
		}
		t.Add(name, secs(insert), fmt.Sprintf("%.1f", float64(p99)/1e3), secs(scanDur))
	}
	t.Notes = append(t.Notes, "offloaded queries move only results, so the fabric tax is per-command latency, not data volume")
	return t, nil
}

// workloadKey/-Value are tiny deterministic generators for the ablation.
func workloadKey(i int) []byte {
	k := make([]byte, 16)
	x := uint64(i) * 0x9E3779B97F4A7C15
	for j := 0; j < 8; j++ {
		k[j] = byte(x >> (8 * uint(j)))
	}
	return k
}

func workloadValue(i int) []byte {
	v := make([]byte, 32)
	x := uint64(i)*6364136223846793005 + 1442695040888963407
	for j := 0; j < 32; j++ {
		v[j] = byte(x >> (8 * uint(j%8)))
	}
	return v
}

// newKVCSDRigWith builds a rig with an options hook.
func newKVCSDRigWith(hostCores int, dataBytes int64, seed int64, mod func(*device.Options)) *kvcsdRig {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	hcfg := host.DefaultHostConfig()
	if hostCores > 0 {
		hcfg.Cores = hostCores
	}
	h := host.New(env, hcfg)
	opts := device.DefaultOptions()
	opts.SSD = kvcsdSSDConfig(dataBytes)
	opts.Engine.SortBudgetBytes = 4 << 20
	opts.Seed = seed
	if mod != nil {
		mod(&opts)
	}
	dev := device.New(env, opts, st)
	return &kvcsdRig{env: env, h: h, dev: dev, st: st, tgt: workload.NewKVCSDTarget(h, dev)}
}

// Table1 renders the simulated hardware configuration (paper Table I).
func Table1() *Table {
	t := &Table{
		Title:  "Table I: simulated hardware specification",
		Header: []string{"component", "host", "kvcsd_csd"},
	}
	hc, sc := host.DefaultHostConfig(), host.DefaultSoCConfig()
	dd := device.DefaultOptions()
	t.Add("CPU", fmt.Sprintf("%d cores (speed 1.0)", hc.Cores),
		fmt.Sprintf("%d ARM cores (speed %.2f)", sc.Cores, sc.Speed))
	t.Add("DRAM", "512GB (not a constraint)", stats.HumanBytes(dd.Engine.DRAMBytes))
	t.Add("Storage", "KV-CSD CSD", fmt.Sprintf("%d-zone ZNS SSD, %d channels",
		dd.SSD.NumZones, dd.SSD.Channels))
	t.Add("Link", fmt.Sprintf("PCIe x%d (%.1f GB/s)", dd.Link.Lanes, dd.Link.BandwidthH2D/1e9), "4 PCIe lanes to SSD")
	t.Add("IngestBuffer", "-", stats.HumanBytes(int64(dd.Engine.IngestBufferBytes)))
	return t
}
