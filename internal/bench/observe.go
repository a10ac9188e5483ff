package bench

import (
	"fmt"
	"strings"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// The observability run is a Fig-9-flavoured session — bulk insert,
// device-side compaction, foreground traffic riding alongside it — executed
// with tracing, metrics, and the periodic sampler enabled.
const (
	// observeForegroundOps is the number of Store/Retrieve pairs issued
	// against a second keyspace while the compaction runs in the background.
	observeForegroundOps = 512
	// observeValueSize is the size of every value.
	observeValueSize = 32
)

// ObserveResult bundles everything the run produced.
type ObserveResult struct {
	Tracer   *obs.Tracer
	Registry *obs.Registry
	Sampler  *obs.Sampler  // time series per device.SamplerColumns
	SoC      *sim.Resource // the device's SoC core pool
	Summary  *Table        // per-opcode stage latency breakdown
	// MaxStageErr is the worst relative |stage-sum - client latency| over all
	// command spans. The stage model is exact, so anything above ~1%
	// indicates an attribution bug.
	MaxStageErr float64
}

// Observe runs the instrumented session and reports stage-attributed
// latencies. The sampler rows cover the whole run, so plotting cmds_per_s
// against bg_jobs shows foreground throughput across the background
// compaction — the effect Figure 9 quantifies end-to-end. sampleInterval is
// the sampler's virtual-time period (0 = 250µs).
func Observe(s Scale, sampleInterval time.Duration) (*ObserveResult, error) {
	keys := s.Fig9KeysPerKeyspace // bulk-inserted into the compacted keyspace
	if sampleInterval <= 0 {
		sampleInterval = 250 * time.Microsecond
	}

	env := sim.NewEnv()
	st := stats.NewIOStats()
	h := host.New(env, host.DefaultHostConfig())
	opts := device.DefaultOptions()
	opts.SSD = kvcsdSSDConfig(int64(keys) * int64(16+observeValueSize))
	opts.Engine.SortBudgetBytes = 4 << 20
	opts.Seed = s.Seed
	opts.Trace = true // the stage table needs spans
	opts.Metrics = true
	dev := device.New(env, opts, st)
	cl := client.New(h, dev)
	sampler := dev.StartSampler(sampleInterval)

	rng := sim.NewRNG(s.Seed)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%012d", i)) }
	val := make([]byte, observeValueSize)

	summary := &Table{
		Fig: "stages", Keys: []string{"op"},
		Title: "Command latency by stage (mean µs per command)",
		Header: []string{"op", "n", "total_us", "p99_us",
			"queue_us", "link_us", "service_us", "media_us"},
	}
	err := summary.runSim(env, func(p *sim.Proc) error {
		// Always shut the device down, even on error: the sampler schedules
		// events forever, so leaving it running would hang env.Run.
		defer dev.Shutdown()

		// A small pre-compacted keyspace serves the foreground GETs issued
		// while the big compaction runs (GETs need a compacted keyspace).
		read, err := cl.CreateKeyspace(p, "obs-read")
		if err != nil {
			return err
		}
		for i := 0; i < 64; i++ {
			if err := read.Put(p, key(i), val); err != nil {
				return err
			}
		}
		if err := read.Compact(p); err != nil {
			return err
		}
		if err := read.WaitCompacted(p); err != nil {
			return err
		}

		bulk, err := cl.CreateKeyspace(p, "obs-bulk")
		if err != nil {
			return err
		}
		for i := 0; i < keys; i++ {
			if err := bulk.BulkPut(p, key(i), val); err != nil {
				return err
			}
		}
		if err := bulk.Flush(p); err != nil {
			return err
		}

		fg, err := cl.CreateKeyspace(p, "obs-fg")
		if err != nil {
			return err
		}

		// Kick off the background compaction, then keep foreground traffic
		// flowing while it runs: the sampler's cmds_per_s column against
		// bg_jobs is the Figure-9 story as a timeline.
		if err := bulk.Compact(p); err != nil {
			return err
		}
		for i := 0; i < observeForegroundOps; i++ {
			if err := fg.Put(p, key(rng.Intn(observeForegroundOps)), val); err != nil {
				return err
			}
			if _, _, err := read.Get(p, key(rng.Intn(64))); err != nil {
				return err
			}
		}
		if err := bulk.WaitCompacted(p); err != nil {
			return err
		}
		for i := 0; i < observeForegroundOps; i++ {
			if _, ok, err := bulk.Get(p, key(rng.Intn(keys))); err != nil {
				return err
			} else if !ok {
				return fmt.Errorf("observe: key missing after compaction")
			}
		}
		return dev.WaitBackgroundIdle(p)
	})
	if err != nil {
		return nil, err
	}

	res := &ObserveResult{
		Tracer:   dev.Tracer(),
		Registry: dev.Registry(),
		Sampler:  sampler,
		SoC:      dev.SoC().CPU(),
		Summary:  summary,
	}
	observeSummary(summary, dev.Registry())
	for _, sp := range dev.Tracer().Finished() {
		// Only command round trips partition exactly; background job spans
		// stage their media time but not their SoC compute.
		if sp.Parent() != nil || sp.Duration() <= 0 || !strings.HasPrefix(sp.Name(), "cmd:") {
			continue
		}
		rel := float64(sp.Duration()-sp.StageSum()) / float64(sp.Duration())
		if rel < 0 {
			rel = -rel
		}
		if rel > res.MaxStageErr {
			res.MaxStageErr = rel
		}
	}
	res.Summary.Notes = append(res.Summary.Notes,
		fmt.Sprintf("stage sums match client-observed latency within %.4f%% (worst span)", res.MaxStageErr*100))
	return res, nil
}

// observeSummary fills t with the per-opcode stage histograms: where a
// command's latency goes — queue wait, link, device service CPU, or media.
func observeSummary(t *Table, reg *obs.Registry) {
	us := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/1e3) }
	seen := map[string]bool{}
	for _, name := range reg.HistogramNames() {
		op := name
		if i := len(name) - len("/total"); i > 0 && name[i:] == "/total" {
			op = name[:i]
		} else {
			continue
		}
		if seen[op] {
			continue
		}
		seen[op] = true
		total := reg.Histogram(op + "/total")
		t.Add(op, fmt.Sprint(total.Count()), us(total.Mean()), us(total.Quantile(0.99)),
			us(reg.StageHistogram(op, obs.StageQueue).Mean()),
			us(reg.StageHistogram(op, obs.StageLink).Mean()),
			us(reg.StageHistogram(op, obs.StageService).Mean()),
			us(reg.StageHistogram(op, obs.StageMedia).Mean()))
	}
	t.Notes = append(t.Notes,
		"stages partition each command's client-observed latency: queue = submission-queue wait,",
		"link = host prep + PCIe both directions, service = on-SoC execution, media = NAND channel time")
}
