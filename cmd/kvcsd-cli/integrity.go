// Integrity subcommands: corrupt (flip bits inside one extent granule and
// show reads failing over typed, never silently wrong) and scrub (walk a
// device's checksummed extents, optionally repairing what the walk finds from
// replica copies). Both mirror the power-cut/recover pattern: the local mode
// rebuilds the deterministic cluster and injects the fault itself; with -addr
// they drive a live kvcsd-server.

package main

import (
	"flag"
	"fmt"
	"strings"

	"kvcsd/internal/array"
	"kvcsd/internal/core"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// parseExtentKind maps the CLI -kind argument to the device extent kind.
func parseExtentKind(s string) (core.ExtentKind, error) {
	switch strings.ToLower(s) {
	case "klog":
		return core.ExtentKLOG, nil
	case "vlog":
		return core.ExtentVLOG, nil
	case "pidx":
		return core.ExtentPIDX, nil
	case "sorted":
		return core.ExtentSorted, nil
	case "sidx":
		return core.ExtentSIDX, nil
	}
	return 0, fmt.Errorf("unknown extent kind %q (try klog, vlog, pidx, sorted, sidx)", s)
}

// holds reports whether dev carries a replica of partition pi of ks.
func holds(ks *array.Keyspace, pi, dev int) bool {
	for _, d := range ks.Replicas(pi) {
		if d == dev {
			return true
		}
	}
	return false
}

// shardOn returns the index of the first partition of ks with a replica on
// dev, -1 when the device holds none of the keyspace.
func shardOn(ks *array.Keyspace, dev int) int {
	for pi := 0; pi < ks.Partitions(); pi++ {
		if holds(ks, pi, dev) {
			return pi
		}
	}
	return -1
}

func runCorrupt(cfg cliConfig, args []string) error {
	ca, err := parseCorrupt(args)
	if err != nil {
		return err
	}
	if err := checkDev(cfg, ca.dev); err != nil {
		return err
	}
	return runArray(cfg, func(p *sim.Proc, a *array.Array) error {
		ks, err := load(p, a, cfg)
		if err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		pi := shardOn(ks, ca.dev)
		if pi < 0 {
			return fmt.Errorf("device %d holds no shard of %s", ca.dev, cfg.ksName)
		}
		flipped, err := a.CorruptExtent(p, ca.dev, ks.ShardName(pi), ca.addr)
		if err != nil {
			return err
		}
		fmt.Printf("flipped %d bits in %s of %s granule %d on device %d\n",
			flipped, ca.kind, ks.ShardName(pi), ca.addr.Granule, ca.dev)

		// Reads must now either verify byte-exact on this replica, fail over
		// to a peer, or fail typed — never return the poisoned bytes.
		found, errs, _ := probe(p, ks, cfg)
		a.WaitRepairsIdle(p) // drain the read-repair passes corrupted reads scheduled
		fmt.Printf("queries over poisoned media: %d/%d found, %d typed errors (replicas=%d)\n",
			found, cfg.queries, errs, a.Options().Replicas)
		rep, err := a.ScrubDevice(p, ca.dev)
		if err != nil {
			return err
		}
		fmt.Printf("post-repair scrub of device %d: %s\n", ca.dev, rep)
		printIntegrityCounters(a.Stats())
		return nil
	})
}

func runScrub(cfg cliConfig, args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ContinueOnError)
	dev := devFlag(fs)
	poison := fs.Int("poison", 1, "granules to poison before the scrub (0 = scrub clean media)")
	repair := fs.Bool("repair", true, "repair corrupt extents from replica copies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkDev(cfg, *dev); err != nil {
		return err
	}
	return runArray(cfg, func(p *sim.Proc, a *array.Array) error {
		ks, err := load(p, a, cfg)
		if err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		poisoned := 0
		for pi := 0; pi < ks.Partitions() && poisoned < *poison; pi++ {
			if !holds(ks, pi, *dev) {
				continue
			}
			addr := nvme.ExtentAddr{Kind: uint8(core.ExtentSorted), Granule: 0, Bits: 16}
			if _, err := a.CorruptExtent(p, *dev, ks.ShardName(pi), addr); err != nil {
				return err
			}
			poisoned++
		}
		if poisoned > 0 {
			fmt.Printf("poisoned %d sorted granule(s) on device %d\n", poisoned, *dev)
		}
		var rep *core.ScrubReport
		if *repair {
			rep, err = a.RepairDevice(p, *dev)
		} else {
			rep, err = a.ScrubDevice(p, *dev)
		}
		if err != nil {
			return err
		}
		fmt.Printf("scrub device %d (repair=%v): %s\n", *dev, *repair, rep)
		for _, ext := range rep.Corrupt {
			fmt.Printf("  corrupt: %s %s granule %d (zone %d)\n",
				ext.Keyspace, ext.Kind, ext.Granule, ext.Zone)
		}
		printIntegrityCounters(a.Stats())
		return nil
	})
}

func printIntegrityCounters(st *stats.IOStats) {
	fmt.Printf("integrity counters:\n")
	fmt.Printf("  rotted bytes: %s  corrupt detected: %d\n",
		stats.HumanBytes(st.MediaRotted.Value()), st.CorruptDetected.Value())
	fmt.Printf("  scrubbed: %s  extents repaired: %d  zones quarantined: %d\n",
		stats.HumanBytes(st.ScrubbedBytes.Value()), st.RepairedExtents.Value(),
		st.QuarantinedZones.Value())
}
