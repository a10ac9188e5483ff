// Crash-recovery subcommands: power-cut (kill a device and show degraded
// reads), recover (power-cycle a device and print the recovery scrub
// statistics), and inject-fault (arm a seeded probabilistic fault profile and
// show the router riding through it).

package main

import (
	"flag"
	"fmt"
	"time"

	"kvcsd/internal/array"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

func runPowerCut(cfg cliConfig, args []string) error {
	dev, err := parseDev("power-cut", args)
	if err != nil {
		return err
	}
	if err := checkDev(cfg, dev); err != nil {
		return err
	}
	return runArray(cfg, func(p *sim.Proc, a *array.Array) error {
		ks, err := load(p, a, cfg)
		if err != nil {
			return err
		}
		if err := ks.Sync(p); err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		rep := a.PowerCut(p, dev)
		fmt.Printf("power cut device %d at %v: %d in-flight appends, %d zones torn, %s destroyed\n",
			dev, p.Now(), rep.InFlightAppends, rep.TornZones, stats.HumanBytes(rep.TornBytes))
		// Degraded reads: the router fails over to surviving replicas.
		found, failed, _ := probe(p, ks, cfg)
		fmt.Printf("degraded reads: %d/%d found, %d failed (replicas=%d)\n",
			found, cfg.queries, failed, a.Options().Replicas)
		for _, h := range a.Health() {
			fmt.Printf("  device %d: %s\n", h.ID, upDown(h.Down))
		}
		return nil
	})
}

func runRecover(cfg cliConfig, args []string) error {
	fs := flag.NewFlagSet("recover", flag.ContinueOnError)
	dev := devFlag(fs)
	midLoad := fs.Bool("mid-load", true, "cut during load (torn writes) instead of after compaction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkDev(cfg, *dev); err != nil {
		return err
	}
	return runArray(cfg, func(p *sim.Proc, a *array.Array) error {
		ks, err := a.CreateRangeSharded(p, cfg.ksName, cfg.devices)
		if err != nil {
			return err
		}
		cutAt := cfg.keys // after the whole load
		if *midLoad {
			cutAt = cfg.keys / 2
		}
		var cutRep ssd.PowerCutReport
		for i := 0; i < cfg.keys; i++ {
			if err := ks.BulkPut(p, cliKey(cfg.seed, i), cliValue(cfg.seed, i, cfg.valueSize)); err != nil {
				return err
			}
			if i == cutAt {
				cutRep = a.PowerCut(p, *dev)
			}
		}
		if err := ks.Flush(p); err != nil {
			return err
		}
		if cutAt == cfg.keys {
			cutRep = a.PowerCut(p, *dev)
		}
		fmt.Printf("power cut device %d: %d in-flight appends, %d zones torn, %s destroyed\n",
			*dev, cutRep.InFlightAppends, cutRep.TornZones, stats.HumanBytes(cutRep.TornBytes))
		hinted := a.HintedWrites(*dev)
		t0 := p.Now()
		rep, err := a.RestartDevice(p, *dev)
		if err != nil {
			return fmt.Errorf("restart device %d: %w", *dev, err)
		}
		fmt.Printf("recovery of device %d in %v (virtual):\n", *dev, p.Now()-t0)
		fmt.Printf("  keyspaces scrubbed:  %d\n", rep.Keyspaces)
		fmt.Printf("  scrubbed bytes:      %s\n", stats.HumanBytes(rep.ScrubbedBytes))
		fmt.Printf("  repaired zones:      %d\n", rep.RepairedZones)
		fmt.Printf("  torn records:        %d\n", rep.TornRecords)
		fmt.Printf("  recovered frames:    %d (%s)\n", rep.RecoveredFrames, stats.HumanBytes(rep.RecoveredBytes))
		fmt.Printf("  lost bytes:          %s\n", stats.HumanBytes(rep.LostBytes))
		fmt.Printf("  orphan zones swept:  %d\n", rep.OrphanZones)
		fmt.Printf("  hinted writes replayed: %d\n", hinted)
		if err := ks.Sync(p); err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		found, _, err := probe(p, ks, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("post-recovery queries: %d/%d found\n", found, cfg.queries)
		return nil
	})
}

func runInjectFault(cfg cliConfig, args []string) error {
	fs := flag.NewFlagSet("inject-fault", flag.ContinueOnError)
	dev := devFlag(fs)
	kind := fs.String("kind", "zone-read", "operation kind: zone-read, zone-write, block-read, block-write")
	errRate := fs.Float64("error-rate", 0.05, "probability a matching op fails")
	latRate := fs.Float64("latency-rate", 0.0, "probability a matching op pays extra latency")
	extra := fs.Duration("extra-latency", time.Millisecond, "latency added when a latency fault fires")
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
		a.Member(*dev).Dev.SetFaultProfile(&ssd.FaultProfile{
			Seed:         cfg.seed,
			ErrorRate:    map[string]float64{*kind: *errRate},
			LatencyRate:  map[string]float64{*kind: *latRate},
			ExtraLatency: *extra,
		})
		fmt.Printf("armed fault profile on device %d: kind=%s error-rate=%.3f latency-rate=%.3f extra=%v\n",
			*dev, *kind, *errRate, *latRate, *extra)
		t0 := p.Now()
		found, errs, _ := probe(p, ks, cfg)
		fmt.Printf("queries under faults: %d/%d found, %d client-visible errors in %v\n",
			found, cfg.queries, errs, p.Now()-t0)
		for _, h := range a.Health() {
			fmt.Printf("  device %d: %s (consecutive failures: %d)\n", h.ID, upDown(h.Down), h.Failures)
		}
		return nil
	})
}
