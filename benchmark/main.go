// Command benchmark is the repository's benchmark: four long-run workloads
// measured on both clocks (the simulator's virtual time and the host's wall
// time), every layer measured from outside. See README.md.
//
//	go run . -workload vpic-timesteps -seed 1            end-to-end metrics
//	go run . -workload remote-get -seed 1 -trace 1       per-layer metrics, trace, layers.json
//	go run . -sets 3                                     spread between complete sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() {
	var c config
	name := flag.String("workload", "", "workload to run: vpic-timesteps, remote-get, remote-mixed, array-replicated")
	flag.Int64Var(&c.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&c.seconds, "seconds", 15, "measurement length; turned into a round count by the workload's nominal round time")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics and writing trace.json and layers.json")
	flag.IntVar(&c.rounds, "rounds", 0, "run exactly this many timed rounds instead of deriving them from -seconds")
	flag.IntVar(&c.shrink, "shrink", 1, "divide the frozen sizes by this (smoke tests)")
	sets := flag.Int("sets", 0, "run this many complete sets of every workload and report the spread between them")
	flag.StringVar(&c.outDir, "out", ".bench_out", "directory traced runs write into")
	flag.Parse()

	c.traced = *trace != 0
	c.sz = frozenSizes().shrink(c.shrink)
	// Server, simulator and load generator share these cores, so CPU metrics
	// cover both sides of every socket.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	header(os.Stdout, &c)

	if *sets > 0 {
		os.Exit(runSets(os.Stdout, &c, *sets))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -workload %q\n", *name)
		os.Exit(2)
	}
	var res *runResult
	var defs []metricDef
	var err error
	if c.traced {
		res, err = runTraced(&c, w)
		defs = perLayer
	} else {
		c.setups = 3
		var run *measurement
		if run, err = measure(&c, w, nil); err == nil {
			run.sys.close()
			res = run.res
		}
		defs = endToEnd
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report(os.Stdout, res, defs)
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// header records what two result files must agree on before their numbers
// may be compared.
func header(w io.Writer, c *config) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	fmt.Fprintf(w, "# kvcsd benchmark: nproc=%d GOMAXPROCS=%d %s GOGC=%s seed=%d seconds=%d rounds=%d shrink=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc, c.seed, c.seconds, c.rounds, c.shrink)
	fmt.Fprintf(w, "# sizes: %+v\n", c.sz)
	fmt.Fprintf(w, "# policy: closed loop everywhere; forced GC before every round, outside its timed window; no explicit flushes beyond the workloads' own Flush/Sync calls\n")
}

// report prints every metric by name with its unit, then the one-line JSON
// result the driver reads.
func report(w io.Writer, res *runResult, defs []metricDef) {
	fmt.Fprintf(w, "workload %s: %d timed rounds, %d operations attempted, %d failed\n",
		res.workload, res.rounds, res.attempted, res.failed)
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]mv{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		fmt.Fprintf(w, "  %-40s %16.6f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = mv{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// runTraced produces the per-layer metrics: a short untraced pass for the
// tracing-overhead baseline, then the same rounds with the device's tracer
// and registry on, the remote client's tracer on, and the benchmark's own
// spans recorded around every phase and every 64th call.
func runTraced(c *config, w workloadDef) (*runResult, error) {
	// The micro loops run first, on a small heap: the traced system keeps every
	// span it records alive, and a collector working through that would be
	// what the loops measured.
	calib0 := calibrate()
	micro := map[string]float64{
		"sim.handoff_ns":              microSimHandoff(c.shrink),
		"session.sched_ns_per_item":   microSched(c.shrink),
		"core.merge_wall_ns_per_pair": microMerge(c.shrink),
	}
	micro["wire.encode_ns_per_frame"], micro["wire.decode_ns_per_frame"], micro["wire.decode_allocs_per_frame"] = microWire(c.shrink)
	plain := *c
	plain.traced, plain.setups = false, 1
	base, err := measure(&plain, w, nil)
	if err != nil {
		return nil, err
	}
	base.sys.close()
	debug.FreeOSMemory()

	c.setups = 1
	rec := newRecorder()
	run, err := measure(c, w, rec)
	if err != nil {
		return nil, err
	}
	defer run.sys.close()
	res, timed := run.res, run.timed
	layer := run.sys.layers(timed, run.pre)

	var wall, virt, commands, ops float64
	for i := range timed {
		wall += float64(timed[i].wall)
		virt += float64(timed[i].virt)
		ops += float64(timed[i].ops)
	}
	commands = sumLayer(timed, "commands")
	layer["sim.wall_us_per_virt_ms"] = ratio(wall/1e3, virt/1e6)
	layer["nvme.commands_per_kop"] = ratio(commands, ops) * 1e3
	layer["trace.overhead_ratio"] = ratio(res.metrics["wall_kops_per_s"], base.res.metrics["wall_kops_per_s"])
	layer["host.calib_ns_per_kb"] = (calib0 + calibrate()) / 2
	for name, v := range micro {
		layer[name] = v
	}
	for _, d := range perLayer {
		if _, ok := layer[d.name]; !ok {
			layer[d.name] = 0 // this workload does not exercise that layer
		}
	}

	dir := filepath.Join(c.outDir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dev, sampled := run.sys.traceSources()
	if err := rec.writeTrace(filepath.Join(dir, "trace.json"), dev, sampled); err != nil {
		return nil, err
	}
	if err := writeLayers(dir, w, c, layer, rec.summarize()); err != nil {
		return nil, err
	}
	fmt.Printf("traced run wrote %s and %s\n", filepath.Join(dir, "trace.json"), filepath.Join(dir, "layers.json"))
	res.metrics = layer
	return res, nil
}
