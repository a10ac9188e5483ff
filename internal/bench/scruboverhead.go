package bench

import (
	"fmt"
	"time"

	"kvcsd/internal/array"
	"kvcsd/internal/device"
	"kvcsd/internal/sim"
)

// scrubIntervalSweep is the scrub-cadence axis: off (the baseline row) and
// three virtual-time cadences from lazy to aggressive. The query window at
// default scale is tens of milliseconds, so even the lazy cadence completes
// passes during it.
var scrubIntervalSweep = []time.Duration{0, 10 * time.Millisecond, 2 * time.Millisecond, 500 * time.Microsecond}

// scrubRunResult carries one cadence's virtual-clock measurements.
type scrubRunResult struct {
	load     time.Duration
	query    time.Duration
	scrubbed int64 // bytes the scrubber verified
	detected int64 // checksum failures (0 on clean media)
}

// ScrubOverhead measures what the background media scrubber costs foreground
// reads. One device is loaded and compacted, then a fixed random point-read
// workload runs while the scrubber re-verifies every checksummed extent at
// the row's cadence — its reads go through the same SSD channels and its
// checksum work through the same SoC cores, so the slowdown is contention,
// not modeling fiat. The first row (scrub off) is the baseline the overhead
// ratios divide by. Virtual-clock, deterministic.
func ScrubOverhead(s Scale) (*Table, error) {
	t := &Table{
		Fig: "scrub", Keys: []string{"scrub_interval"},
		Title:  "Background scrub overhead: verified point reads under a live scrubber (virtual clock)",
		Header: []string{"scrub_interval", "load_s", "query_s", "scrub_mb", "detected", "overhead"},
		Notes: []string{
			fmt.Sprintf("%d keys loaded+compacted, %d random GETs per row; scrubber live during the GET window", s.ArrayTotalKeys, s.ArrayQueries),
			"overhead: query_s relative to the scrub-off baseline row",
		},
	}
	var base time.Duration
	for _, iv := range scrubIntervalSweep {
		res, err := scrubRun(t, s, iv)
		if err != nil {
			return nil, fmt.Errorf("scrub interval %v: %w", iv, err)
		}
		if iv == 0 {
			base = res.query
		}
		mode := "off"
		if iv > 0 {
			mode = iv.String()
		}
		t.Add(
			mode,
			secs(res.load),
			secs(res.query),
			fmt.Sprintf("%.2f", float64(res.scrubbed)/(1<<20)),
			fmt.Sprintf("%d", res.detected),
			ratio(res.query, base),
		)
	}
	return t, nil
}

// scrubRun executes one cadence on behalf of t: load + compact, then the
// timed GET sweep.
func scrubRun(t *Table, s Scale, interval time.Duration) (scrubRunResult, error) {
	env := sim.NewEnv()
	dopts := device.DefaultOptions()
	dopts.SSD = kvcsdSSDConfig(int64(s.ArrayTotalKeys) * 96)
	dopts.Engine.SortBudgetBytes = 4 << 20
	dopts.Engine.ScrubInterval = interval
	arr := array.New(env, array.Options{Devices: 1, Replicas: 1, Seed: s.Seed, Device: dopts})

	var res scrubRunResult
	var runErr error
	env.Go("scrub-overhead", func(p *sim.Proc) {
		defer arr.Shutdown()
		ks, err := arr.CreateKeyspace(p, "bench")
		if err != nil {
			runErr = err
			return
		}
		t0 := p.Now()
		for i := 0; i < s.ArrayTotalKeys; i++ {
			if err := ks.BulkPut(p, scrubKey(i), scrubValue(i)); err != nil {
				runErr = err
				return
			}
		}
		if err := ks.Flush(p); err != nil {
			runErr = err
			return
		}
		if err := ks.Compact(p); err != nil {
			runErr = err
			return
		}
		res.load = time.Duration(p.Now() - t0)

		rng := sim.NewRNG(s.Seed).Fork(0x5c12)
		t1 := p.Now()
		for q := 0; q < s.ArrayQueries; q++ {
			i := int(rng.Uint64() % uint64(s.ArrayTotalKeys))
			if _, _, err := ks.Get(p, scrubKey(i)); err != nil {
				runErr = fmt.Errorf("get %d: %w", q, err)
				return
			}
		}
		res.query = time.Duration(p.Now() - t1)
	})
	t.run(env)
	if runErr != nil {
		return res, runErr
	}
	st := arr.Stats()
	res.scrubbed = st.ScrubbedBytes.Value()
	res.detected = st.CorruptDetected.Value()
	return res, nil
}

func scrubKey(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func scrubValue(i int) []byte {
	return []byte(fmt.Sprintf("val-%08d-%056d", i, i))
}
