package bench

import (
	"fmt"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/compaction"
	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// compactSplitCase is one cell of the assist x pipeline-width sweep: with a
// host assist loop attached the device splits its merges with the host
// (the "collaborative" rows), without one it merges alone ("device").
type compactSplitCase struct {
	assist bool
	width  int
}

// policy labels a row by where its merges ran.
func (c compactSplitCase) policy() string {
	if c.assist {
		return "collaborative"
	}
	return "device"
}

// compactSplitSweep starts with the sequential device-only row — the seed's
// monolithic compaction — which is the baseline every speedup divides by.
var compactSplitSweep = []compactSplitCase{{false, 1}, {false, 4}, {true, 1}, {true, 4}}

// The contention model. Collaborative compaction only matters when neither
// side is idle, so every cell runs the paper's regime: the host is an
// application server with a handful of spare cores and a compute-bound
// application keeping most of them busy, while foreground point reads keep
// the device SoC queue deep for the whole compaction window.
const (
	csHotKeys     = 1024
	csProbers     = 16                     // closed-loop foreground readers
	csProbeGap    = 5 * time.Microsecond   // think time between GETs
	csHostWorkers = 6                      // application compute procs
	csHostSlice   = 100 * time.Microsecond // CPU burst per loop
	csHostGap     = 5 * time.Microsecond   // pause between bursts
	csHostCores   = 2                      // spare cores the merge shares
	csMinProbes   = 64                     // p99 floor when compaction is quick
	csIdlePoll    = 50 * time.Microsecond  // loops parked before compaction
	csValueBytes  = 256                    // value size; see csValue
)

// compactSplitResult carries one cell's virtual-clock measurements.
type compactSplitResult struct {
	load       time.Duration
	compact    time.Duration
	fgLat      []time.Duration // foreground GETs issued while compaction ran
	hostRuns   int
	deviceRuns int
	skew       string // chan_skew over the compaction window
}

// CompactSplit measures the collaborative compaction subsystem: whether the
// device SoC should merge the sorted runs alone or split them with the host
// by load, and how wide the device pipeline should be, judged by compaction
// wall time while foreground readers hammer an already-compacted keyspace on
// the same device and an application workload occupies most of the host CPU.
// Collaborative rows run a live host merge loop over the NVMe assist ops, so
// host runs pay the PCIe round trips and contend with the application for
// cores; device runs contend with the foreground readers for the SoC.
// Virtual-clock, deterministic.
func CompactSplit(s Scale) (*Table, error) {
	t, _, err := compactSplit(s)
	return t, err
}

// compactSplit is CompactSplit plus each row's unrounded compaction time,
// which the shape test orders by: two rows can land in one rounded cell.
func compactSplit(s Scale) (*Table, []time.Duration, error) {
	t := &Table{
		Fig: "compactsplit", Keys: []string{"policy", "width"},
		Title:  "Compaction split: merge placement x pipeline width under foreground load (virtual clock)",
		Header: []string{"policy", "width", "load_s", "compact_s", "fg_gets", "fg_p99_ms", "host_runs", "device_runs", "speedup", "chan_skew"},
		Notes: []string{
			fmt.Sprintf("%d keys compacted; %d foreground readers probe a hot keyspace, %d application procs oversubscribe a %d-core host",
				s.ArrayTotalKeys, csProbers, csHostWorkers, csHostCores),
			"speedup: compaction wall time relative to the sequential device-only row (the seed's monolithic path)",
			"chan_skew: the device's busiest NAND channel busy time over the mean, from the victim's Compact to its WaitCompacted",
		},
	}
	var base time.Duration
	var compact []time.Duration
	for _, c := range compactSplitSweep {
		res, err := compactSplitRun(t, s, c)
		if err != nil {
			return nil, nil, fmt.Errorf("policy %s width %d: %w", c.policy(), c.width, err)
		}
		if !c.assist && c.width == 1 {
			base = res.compact
		}
		compact = append(compact, res.compact)
		t.Add(
			c.policy(),
			fmt.Sprintf("%d", c.width),
			secs(res.load),
			secs(res.compact),
			fmt.Sprintf("%d", len(res.fgLat)),
			millis(p99(res.fgLat)),
			fmt.Sprintf("%d", res.hostRuns),
			fmt.Sprintf("%d", res.deviceRuns),
			// Two decimals: the split's deltas ride on a constant value-pass
			// floor, so one decimal would round them all to 1.0x.
			fmt.Sprintf("%.2fx", float64(base)/float64(res.compact)),
			res.skew,
		)
	}
	return t, compact, nil
}

// compactSplitRun executes one cell: load and compact a hot keyspace, bulk
// load the victim keyspace, then compact the victim while the foreground and
// application loads run, timing both sides.
func compactSplitRun(t *Table, s Scale, c compactSplitCase) (compactSplitResult, error) {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	opts := device.DefaultOptions()
	opts.SSD = kvcsdSSDConfig(int64(s.ArrayTotalKeys) * (csValueBytes + 128))
	opts.SSD.ZoneSize = 256 << 10
	opts.SSD.NumZones = 4096
	opts.Engine.IngestBufferBytes = 16 << 10
	opts.Engine.SortBudgetBytes = 96 << 10
	opts.Engine.Compaction = compaction.Config{PipelineWidth: c.width}
	opts.Seed = s.Seed
	dev := device.New(env, opts, st)
	hcfg := host.DefaultHostConfig()
	hcfg.Cores = csHostCores // the application owns the rest of the socket
	h := host.New(env, hcfg)
	cl := client.New(h, dev)

	// Shared phase state: the load loops park until the victim compaction
	// starts and exit once the run is over. The sim is cooperative, so plain
	// variables are safe and deterministic.
	var (
		compacting bool
		stop       bool
		liveLoops  int
		hostBusy   int
		hot        *client.Keyspace
		res        compactSplitResult
		runErr     error
		probeErr   error
	)

	for w := 0; w < csHostWorkers; w++ {
		liveLoops++
		env.Go(fmt.Sprintf("host-app-%d", w), func(p *sim.Proc) {
			defer func() { liveLoops-- }()
			for !stop {
				if !compacting {
					p.Sleep(csIdlePoll)
					continue
				}
				hostBusy++
				h.Compute(p, csHostSlice)
				hostBusy--
				p.Sleep(csHostGap)
			}
		})
	}
	for w := 0; w < csProbers; w++ {
		liveLoops++
		rng := sim.NewRNG(s.Seed).Fork(int64(0x5911 + w))
		env.Go(fmt.Sprintf("foreground-%d", w), func(p *sim.Proc) {
			defer func() { liveLoops-- }()
			for !stop {
				if !compacting || hot == nil {
					p.Sleep(csIdlePoll)
					continue
				}
				i := int(rng.Uint64() % csHotKeys)
				g0 := p.Now()
				if _, ok, err := hot.Get(p, csKey(i)); err != nil || !ok {
					if probeErr == nil {
						probeErr = fmt.Errorf("foreground get %d: ok=%v err=%v", i, ok, err)
					}
					return
				}
				if compacting {
					res.fgLat = append(res.fgLat, time.Duration(p.Now()-g0))
				}
				p.Sleep(csProbeGap)
			}
		})
	}

	env.Go("compact-split", func(p *sim.Proc) {
		// Quiesce the load loops before Shutdown: a reader blocked in the
		// NVMe submit queue would otherwise wake up on a closed queue.
		defer dev.Shutdown()
		defer func() {
			stop = true
			for liveLoops > 0 {
				p.Sleep(csIdlePoll)
			}
		}()
		runErr = func() error {
			var err error
			hot, err = cl.CreateKeyspace(p, "hot")
			if err != nil {
				return err
			}
			for i := 0; i < csHotKeys; i++ {
				if err := hot.BulkPut(p, csKey(i), csValue(i)); err != nil {
					return err
				}
			}
			if err := hot.Compact(p); err != nil {
				return err
			}
			if err := hot.WaitCompacted(p); err != nil {
				return err
			}

			bulk, err := cl.CreateKeyspace(p, "bulk")
			if err != nil {
				return err
			}
			t0 := p.Now()
			for i := 0; i < s.ArrayTotalKeys; i++ {
				if err := bulk.BulkPut(p, csKey(i), csValue(i)); err != nil {
					return err
				}
			}
			res.load = time.Duration(p.Now() - t0)

			compacting = true
			// Let the application's run-queue fill before the merge loop
			// attaches: its poll reports the host load the planner sees, and
			// a real deployment starts the assist loop on an already-busy
			// application server, not an idle one.
			p.Sleep(time.Millisecond)
			if c.assist {
				// The merge loop reports the application's live run-queue so
				// the collaborative planner sees real host pressure; Shutdown
				// closes the assist queue and lets the loop return.
				env.Go("host-assist", func(p *sim.Proc) {
					_ = cl.ServeHostMerges(p, func() int { return hostBusy })
				})
			}
			busy0 := dev.SSD().ChannelBusyTimes(nil)
			if err := bulk.Compact(p); err != nil {
				return err
			}
			if err := bulk.WaitCompacted(p); err != nil {
				return err
			}
			compacting = false
			res.skew = chanSkew(dev.SSD(), busy0)
			// The client's wait also spans the Compact command and the
			// answer's transfer, so read the job's exact duration from the
			// engine instead.
			cks, err := dev.Engine().Keyspace("bulk")
			if err != nil {
				return err
			}
			res.compact = cks.CompactionDuration()
			// Quick cells still need a comparable p99 sample.
			for len(res.fgLat) < csMinProbes && probeErr == nil {
				i := len(res.fgLat)
				g0 := p.Now()
				if _, ok, err := hot.Get(p, csKey(i%csHotKeys)); err != nil || !ok {
					return fmt.Errorf("floor get %d: ok=%v err=%v", i, ok, err)
				}
				res.fgLat = append(res.fgLat, time.Duration(p.Now()-g0))
				p.Sleep(csProbeGap)
			}

			pr, done, err := bulk.CompactionProgress(p)
			if err != nil || !done {
				return fmt.Errorf("compaction progress: done=%v err=%v", done, err)
			}
			res.hostRuns = int(pr.HostRuns)
			res.deviceRuns = int(pr.DeviceRuns)
			return nil
		}()
	})
	t.run(env)
	if runErr == nil {
		runErr = probeErr
	}
	return res, runErr
}

func csKey(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// Values are mid-sized on purpose. The key sort is the collaborative half of
// the compaction, so keys must stay a meaningful share of the bytes for the
// split to move work around (the paper's metadata-heavy VPIC regime) —
// but the value-distribution passes are the media-bound stages the parallel
// pipeline overlaps, so values must carry enough bytes for width to matter.
func csValue(i int) []byte {
	v := make([]byte, 0, csValueBytes)
	v = append(v, fmt.Sprintf("val-%08d-", i)...)
	for len(v) < csValueBytes {
		v = append(v, byte('a'+i%23))
	}
	return v
}
