package main

import (
	"errors"
	"fmt"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/remote"
	"kvcsd/internal/stats"
	"kvcsd/internal/wire"
)

// runRemote dispatches a subcommand against a running kvcsd-server instead
// of an in-process simulation. Unlike local mode there is no preload: the
// commands operate on whatever state the server already holds, so a
// sequence like `put` then `get` against the same server actually round
// trips through the device.
func runRemote(cfg cliConfig, cmd string, args []string) error {
	switch cmd {
	case "session", "inject-fault":
		return fmt.Errorf("%s is not supported in remote mode (run it locally without -addr)", cmd)
	}

	opts := remote.DefaultOptions()
	opts.Tenant = cfg.tenant
	c, err := remote.Dial(cfg.addr, opts)
	if err != nil {
		return err
	}
	defer c.Close()

	switch cmd {
	case "put":
		return remotePut(c, cfg, args)
	case "get":
		return remoteGet(c, cfg, args)
	case "scan":
		return remoteScan(c, cfg, args)
	case "compact":
		return remoteCompact(c, cfg, args)
	case "delete-keyspace":
		return remoteDeleteKeyspace(c, cfg)
	case "stats":
		return remoteStats(c)
	case "power-cut":
		return remoteDeviceFault(c, args, "power-cut", c.PowerCut)
	case "recover":
		return remoteDeviceFault(c, args, "recover", c.Recover)
	case "scrub":
		return remoteScrub(c, args)
	case "corrupt":
		return remoteCorrupt(c, cfg, args)
	default:
		return fmt.Errorf("unknown remote command %q (try put, get, scan, compact, delete-keyspace, stats, power-cut, recover, scrub, corrupt)", cmd)
	}
}

// openOrCreate opens the working keyspace on the server, creating it on
// first use. Writes target new keyspaces; reads want existing state, so a
// missing keyspace is only an error for commands that need data.
func openOrCreate(c *remote.Client, cfg cliConfig) (*remote.Keyspace, error) {
	ks, err := c.OpenKeyspace(cfg.ksName)
	if err == nil {
		return ks, nil
	}
	if errors.Is(err, client.ErrNotFound) {
		if cfg.devices > 1 {
			return c.CreateRangeSharded(cfg.ksName, cfg.devices)
		}
		return c.CreateKeyspace(cfg.ksName)
	}
	return nil, err
}

func remotePut(c *remote.Client, cfg cliConfig, args []string) error {
	key, err := putArgs(cfg, args)
	if err != nil {
		return err
	}
	ks, err := openOrCreate(c, cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := ks.Put(key, []byte(args[1])); err != nil {
		return err
	}
	fmt.Printf("put %q (%d bytes) into %s on %s in %v\n",
		args[0], len(args[1]), cfg.ksName, c.Addr(), time.Since(t0).Round(time.Microsecond))
	return nil
}

func remoteGet(c *remote.Client, cfg cliConfig, args []string) error {
	key, err := getArgs(cfg, args)
	if err != nil {
		return err
	}
	ks, err := c.OpenKeyspace(cfg.ksName)
	if err != nil {
		return err
	}
	t0 := time.Now()
	val, ok, err := ks.Get(key)
	if err != nil {
		return err
	}
	if !ok {
		fmt.Printf("get %s: not found (%v)\n", args[0], time.Since(t0).Round(time.Microsecond))
		return nil
	}
	fmt.Printf("get %s: %d bytes in %v\n  value: 0x%x\n",
		args[0], len(val), time.Since(t0).Round(time.Microsecond), val)
	return nil
}

func remoteScan(c *remote.Client, cfg cliConfig, args []string) error {
	sa, err := parseScan(args)
	if err != nil {
		return err
	}
	ks, err := c.OpenKeyspace(cfg.ksName)
	if err != nil {
		return err
	}
	t0 := time.Now()
	pairs, err := ks.Scan(sa.lo, sa.hi, sa.limit)
	if err != nil {
		return err
	}
	fmt.Printf("scan %s: %d pairs in %v\n", cfg.ksName, len(pairs), time.Since(t0).Round(time.Microsecond))
	for _, kv := range pairs {
		fmt.Printf("  0x%x  (%d bytes)\n", kv.Key, len(kv.Value))
	}
	return nil
}

func remoteCompact(c *remote.Client, cfg cliConfig, args []string) error {
	ca, err := parseCompact(cfg, args)
	if err != nil {
		return err
	}
	if ca.set {
		ccfg, err := c.SetCompactionPolicy(ca.cfg)
		if err != nil {
			return err
		}
		fmt.Printf("installed compaction config: width=%d\n", ccfg.PipelineWidth)
	}
	ks, err := c.OpenKeyspace(cfg.ksName)
	if err != nil {
		return err
	}
	if ca.status {
		pr, done, err := ks.CompactionProgress()
		if err != nil {
			return err
		}
		fmt.Printf("%s: done=%v stage=%s granules=%d/%d moved=%s runs=host:%d/device:%d occupancy=%d\n",
			cfg.ksName, done, pr.Stage, pr.GranulesDone, pr.GranulesTotal,
			stats.HumanBytes(int64(pr.BytesMoved)), pr.HostRuns, pr.DeviceRuns, pr.Occupancy)
		return nil
	}
	t0 := time.Now()
	if err := ks.Compact(); err != nil {
		return err
	}
	if err := ks.WaitCompacted(); err != nil {
		return err
	}
	info, err := ks.Info()
	if err != nil {
		return err
	}
	fmt.Printf("compacted %s in %v (wall)\n", cfg.ksName, time.Since(t0).Round(time.Microsecond))
	fmt.Printf("state=%s pairs=%d zones=%d\n", info.State, info.Pairs, info.ZoneCount)
	if pr, _, err := ks.CompactionProgress(); err == nil {
		fmt.Printf("split: host runs=%d device runs=%d bytes moved=%s\n",
			pr.HostRuns, pr.DeviceRuns, stats.HumanBytes(int64(pr.BytesMoved)))
	}
	if ca.cold {
		var total int64
		for dev := 0; dev < max(cfg.devices, 1); dev++ {
			moved, err := c.MigrateCold(dev)
			if err != nil {
				return err
			}
			total += moved
		}
		fmt.Printf("extra cold-tier sweep: %d zones migrated (array servers already sweep inside the fleet compaction window)\n", total)
	}
	return nil
}

func remoteDeleteKeyspace(c *remote.Client, cfg cliConfig) error {
	if err := c.DeleteKeyspace(cfg.ksName); err != nil {
		return err
	}
	fmt.Printf("deleted keyspace %s on %s\n", cfg.ksName, c.Addr())
	return nil
}

func remoteStats(c *remote.Client) error {
	rep, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("server %s: %d device(s)\n", c.Addr(), rep.Devices)
	fmt.Printf("  media write: %s   media read: %s\n",
		stats.HumanBytes(rep.MediaWrite), stats.HumanBytes(rep.MediaRead))
	fmt.Printf("  host->device: %s  device->host: %s\n",
		stats.HumanBytes(rep.HostToDevice), stats.HumanBytes(rep.DeviceToHost))
	fmt.Printf("  commands: %d  app writes: %s\n", rep.Commands, stats.HumanBytes(rep.AppWrite))
	if len(rep.Health) > 0 {
		fmt.Printf("health:\n")
		for _, h := range rep.Health {
			fmt.Printf("  device %d: %s (consecutive failures: %d)\n", h.ID, upDown(h.Down), h.Failures)
		}
	}
	if len(rep.Ring) > 0 {
		fmt.Printf("ring:\n")
		for _, e := range rep.Ring {
			leader := "-"
			if e.Leader >= 0 {
				leader = fmt.Sprintf("dev%d", e.Leader)
			}
			fmt.Printf("  %s shard %d: epoch=%d leader=%s members=%v\n",
				e.Keyspace, e.Shard, e.Epoch, leader, e.Members)
		}
	}
	if len(rep.Tenants) > 0 {
		fmt.Printf("tenants:\n")
		for _, t := range rep.Tenants {
			fmt.Printf("  %-12s weight=%-3d sessions=%-3d backlog=%s\n",
				t.Tenant, t.Weight, t.Sessions, stats.HumanBytes(t.BacklogBytes))
			for _, l := range t.Lanes {
				fmt.Printf("    %-8s admitted=%-8d completed=%-8d shed=%-6d queued=%d\n",
					wire.Lane(l.Lane), l.Admitted, l.Completed, l.Shed, l.Queued)
			}
			if n := t.ShedSession + t.ShedTenant + t.ShedGlobal + t.ShedBacklog; n > 0 {
				fmt.Printf("    shed by cause: session-cap=%d tenant-cap=%d global-cap=%d backlog-full=%d\n",
					t.ShedSession, t.ShedTenant, t.ShedGlobal, t.ShedBacklog)
			}
		}
	}
	printCompactions(rep.Compactions)
	if r := rep.RPC; r != nil {
		fmt.Printf("rpc gateway:\n")
		fmt.Printf("  accepted: %d  shed: %d  refused: %d  bad frames: %d  slow ops: %d\n",
			r.Accepted, r.Shed, r.Refused, r.BadFrames, r.SlowOps)
		if r.Batches > 0 {
			fmt.Printf("  coalesced puts: %d into %d batches\n", r.Coalesced, r.Batches)
		}
		for _, op := range r.Ops {
			fmt.Printf("  %-16s n=%-6d errs=%-4d svc=%v virt=%v queue=%v\n",
				op.Op, op.Count, op.Errs,
				time.Duration(op.ServiceNs), time.Duration(op.VirtualNs), time.Duration(op.QueueNs))
		}
	}
	fmt.Printf("server virtual time: %v\n", time.Duration(rep.VirtualNanos))
	return nil
}

// remoteScrub runs a scrub-and-repair pass on one device of the server's
// array and prints the report (an array-level scrub repairs what it finds
// from replica copies).
func remoteScrub(c *remote.Client, args []string) error {
	dev, err := parseDev("scrub", args)
	if err != nil {
		return err
	}
	rep, report, err := c.Scrub(dev)
	if err != nil {
		return err
	}
	fmt.Printf("scrub device %d on %s:\n%s\n", dev, c.Addr(), report)
	if rep != nil {
		for _, ext := range rep.Corrupt {
			fmt.Printf("  corrupt: %s %s granule %d (zone %d)\n",
				ext.Keyspace, ext.Kind, ext.Granule, ext.Zone)
		}
	}
	return nil
}

// remoteCorrupt flips bits inside one extent granule on the server — the
// fault-injection counterpart of scrub. -ks must name the device-side shard
// ("data#p0" for range-sharded keyspaces).
func remoteCorrupt(c *remote.Client, cfg cliConfig, args []string) error {
	ca, err := parseCorrupt(args)
	if err != nil {
		return err
	}
	report, err := c.Corrupt(ca.dev, cfg.ksName, ca.addr)
	if err != nil {
		return err
	}
	fmt.Printf("corrupt on %s: %s\n", c.Addr(), report)
	return nil
}

func remoteDeviceFault(c *remote.Client, args []string, verb string, do func(int) (string, error)) error {
	dev, err := parseDev(verb, args)
	if err != nil {
		return err
	}
	rep, err := do(dev)
	if err != nil {
		return err
	}
	fmt.Printf("%s device %d on %s:\n%s\n", verb, dev, c.Addr(), rep)
	return nil
}
