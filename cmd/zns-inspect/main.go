// Command zns-inspect runs a short KV-CSD session and dumps the device's
// internal state: per-type zone usage, keyspace table contents, metadata
// recovery check, and SoC DRAM gauge — the view the paper's Figure 4
// describes (KLOG/VLOG vs PIDX/SIDX/SORTED_VALUES zones).
//
// Usage:
//
//	zns-inspect                       # small session, dump state
//	zns-inspect -keys 500000 -secondary
//	zns-inspect -addr 127.0.0.1:7411  # inspect a running kvcsd-server
package main

import (
	"flag"
	"fmt"
	"os"

	"kvcsd"
	"kvcsd/internal/core"
	"kvcsd/internal/host"
	"kvcsd/internal/remote"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

func main() {
	keys := flag.Int("keys", 50000, "keys to insert")
	secondary := flag.Bool("secondary", false, "also build a secondary index")
	compact := flag.Bool("compact", true, "invoke compaction")
	traceFile := flag.String("trace", "", "write a Chrome trace of the session to FILE (load in Perfetto)")
	addr := flag.String("addr", "", "inspect a running kvcsd-server instead of a local session (host:port)")
	flag.Parse()

	if *addr != "" {
		if err := inspectRemote(*addr); err != nil {
			fmt.Fprintf(os.Stderr, "zns-inspect: %v\n", err)
			os.Exit(1)
		}
		return
	}

	opts := kvcsd.DefaultOptions()
	opts.Metrics = true
	opts.Trace = *traceFile != ""
	sys := kvcsd.New(&opts)
	eng := sys.Device.Engine()
	reg := sys.Registry()

	dump := func(label string) {
		fmt.Printf("--- %s (t=%v) ---\n", label, sys.Env.Now())
		zm := eng.ZoneManager()
		fmt.Printf("zones: %d used / %d free\n", zm.UsedZones(), zm.FreeZones())
		// Zone write-pointer/utilization view, published by the SSD into the
		// metrics registry as it transitions zone states.
		open := reg.Gauge("ssd/zones_open").Value()
		full := reg.Gauge("ssd/zones_full").Value()
		wp := reg.Gauge("ssd/wp_bytes").Value()
		cap := float64(sys.Device.SSD().NumZones()) * float64(sys.Device.SSD().ZoneSize())
		fmt.Printf("zone states: %g open, %g full; write pointers at %s (%.2f%% of namespace)\n",
			open, full, stats.HumanBytes(int64(wp)), 100*wp/cap)
		byType := zm.UsedByType()
		for _, ty := range []core.ZoneType{
			core.ZoneKLOG, core.ZoneVLOG, core.ZonePIDX,
			core.ZoneSIDX, core.ZoneSortedValues, core.ZoneTemp,
		} {
			if n := byType[ty]; n > 0 {
				fmt.Printf("  %-14s %d zones\n", ty, n)
			}
		}
		for _, name := range eng.Manager().Names() {
			info, err := eng.KeyspaceInfo(name)
			if err != nil {
				continue
			}
			fmt.Printf("keyspace %-8s state=%-10s pairs=%-8d bytes=%-10s zones=%d secondary=%v\n",
				info.Name, info.State, info.Pairs, stats.HumanBytes(info.Bytes),
				info.ZoneCount, info.Secondary)
		}
		fmt.Println()
	}

	err := sys.Run(func(p *kvcsd.Proc) error {
		ks, err := sys.Client.CreateKeyspace(p, "data")
		if err != nil {
			return err
		}
		val := make([]byte, 32)
		for i := 0; i < *keys; i++ {
			copy(val[28:], kvcsd.Float32Key(float32(i%97)))
			if err := ks.BulkPut(p, kvcsd.Uint64Key(uint64(i*2654435761)), val); err != nil {
				return err
			}
		}
		if err := ks.Sync(p); err != nil {
			return err
		}
		dump("after insertion (WRITABLE: KLOG/VLOG zones)")

		if !*compact {
			return nil
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		if err := ks.WaitCompacted(p); err != nil {
			return err
		}
		dump("after compaction (COMPACTED: PIDX/SORTED_VALUES zones)")

		if *secondary {
			if err := ks.BuildSecondaryIndex(p, kvcsd.IndexSpec{
				Name: "attr", Offset: 28, Length: 4, Type: kvcsd.TypeFloat32,
			}); err != nil {
				return err
			}
			if err := ks.WaitIndexBuilt(p, "attr"); err != nil {
				return err
			}
			dump("after secondary index (SIDX zones)")
		}

		// Recovery check: a fresh engine must reconstruct the same table
		// from the metadata zones.
		soc2 := host.New(sys.Env, host.DefaultSoCConfig())
		eng2 := core.NewEngine(sys.Env, sys.Device.SSD(), soc2, core.DefaultConfig(), sim.NewRNG(2), sys.Stats)
		if err := eng2.Recover(p); err != nil {
			return fmt.Errorf("recovery check failed: %w", err)
		}
		fmt.Printf("recovery check: %d keyspace(s) reconstructed from metadata zones: %v (metadata log: %d frames, %s)\n\n",
			len(eng2.Manager().Names()), eng2.Manager().Names(),
			reg.LookupCounter("engine/meta_frames").Value(),
			stats.HumanBytes(reg.LookupCounter("engine/meta_bytes").Value()))
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "zns-inspect: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("media write: %s  media read: %s  total virtual time: %v\n",
		stats.HumanBytes(sys.Stats.MediaWrite.Value()),
		stats.HumanBytes(sys.Stats.MediaRead.Value()),
		sys.Elapsed())
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zns-inspect: %v\n", err)
			os.Exit(1)
		}
		if err := sys.Tracer().WriteChromeTrace(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "zns-inspect: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (open in https://ui.perfetto.dev)\n", *traceFile)
	}
}

// inspectRemote connects to a running kvcsd-server and prints the cluster's
// ownership view: device health plus the ring table from the Stats response
// (shard → devices, ownership epoch, and — for consensus-backed keyspaces —
// the live leader).
func inspectRemote(addr string) error {
	c, err := remote.Dial(addr, remote.DefaultOptions())
	if err != nil {
		return err
	}
	defer c.Close()
	rep, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("server %s: %d device(s)\n", c.Addr(), rep.Devices)
	fmt.Printf("  media write: %s  media read: %s  commands: %d\n",
		stats.HumanBytes(rep.MediaWrite), stats.HumanBytes(rep.MediaRead), rep.Commands)
	if len(rep.Health) > 0 {
		fmt.Printf("health:\n")
		for _, h := range rep.Health {
			state := "up"
			if h.Down {
				state = "DOWN"
			}
			fmt.Printf("  device %d: %s (consecutive failures: %d)\n", h.ID, state, h.Failures)
		}
	}
	if len(rep.Ring) == 0 {
		fmt.Printf("ring: empty (no keyspaces, or a single-device server)\n")
		return nil
	}
	fmt.Printf("ring ownership (%d entries):\n", len(rep.Ring))
	for _, e := range rep.Ring {
		leader := "-"
		if e.Leader >= 0 {
			leader = fmt.Sprintf("dev%d", e.Leader)
		}
		fmt.Printf("  %-12s shard %-3d epoch=%-4d leader=%-6s members=%v\n",
			e.Keyspace, e.Shard, e.Epoch, leader, e.Members)
	}
	return nil
}
