// Command kvcsd-bench regenerates the paper's micro-benchmark figures
// (Figures 7a, 7b, 8, 9, 10a, 10b and Table I) on the simulator.
//
// Usage:
//
//	kvcsd-bench -fig all            # every micro figure at default scale
//	kvcsd-bench -fig 7a -scale 8    # Figure 7a with 8x larger datasets
//	kvcsd-bench -fig ablations      # the design-choice ablations
//	kvcsd-bench -fig array -devices 8 -replicas 2   # multi-device scaling
//	kvcsd-bench -config             # print the simulated hardware (Table I)
//
// Observability (-fig stages: an instrumented bulk-insert + compaction +
// foreground session; these flags select it unless -fig is given explicitly):
//
//	kvcsd-bench -trace=out.json     # Chrome trace of every command (Perfetto)
//	kvcsd-bench -metrics            # stage histograms, gauges, counters
//	kvcsd-bench -sample-interval=1ms -sample-csv=series.csv
//
// Machine-readable results (the rows committed in testdata/bench-baseline and
// compared byte for byte by `go test ./internal/bench/`):
//
//	kvcsd-bench -fig all -json-dir out/        # BENCH_<fig>.json per figure
//	kvcsd-bench -remote-trace merged.json      # merged client+server trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"kvcsd/internal/bench"
)

func fail(err error) {
	fmt.Fprintf(os.Stderr, "kvcsd-bench: %v\n", err)
	os.Exit(1)
}

// must returns a figure, or exits with the error that kept it from running.
func must(t *bench.Table, err error) *bench.Table {
	if err != nil {
		fail(err)
	}
	return t
}

const figNames = "7a, 7b, 8, 9, 10a, 10b, table1, ablations, array, failover, fairness, scrub, compactsplit, stages, all"

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: "+figNames)
	scale := flag.Int("scale", 1, "multiply dataset sizes by this factor")
	seed := flag.Int64("seed", 1, "simulation seed")
	devices := flag.Int("devices", 8, "largest device count in the array-scaling sweep")
	replicas := flag.Int("replicas", 2, "replicas per keyspace in the array-scaling sweep")
	traceFile := flag.String("trace", "", "write a Chrome trace of an instrumented run to FILE (load in Perfetto)")
	metrics := flag.Bool("metrics", false, "print the metrics registry of an instrumented run")
	sampleInterval := flag.Duration("sample-interval", 0, "virtual-time sampling period for the instrumented run (default 250µs)")
	sampleCSV := flag.String("sample-csv", "", "write the sampler time series to FILE (- for stdout)")
	jsonDir := flag.String("json-dir", "", "also write each figure as DIR/BENCH_<fig>.json")
	remoteTrace := flag.String("remote-trace", "", "run a traced remote session and write the merged client+server Chrome trace to FILE")
	flag.Parse()

	s := bench.DefaultScale().Multiply(*scale)
	s.Seed = *seed
	out := os.Stdout

	// emit mirrors a printed figure into -json-dir as one trajectory file.
	emit := func(t *bench.Table) {
		if *jsonDir == "" {
			return
		}
		path, err := bench.WriteTrajectory(*jsonDir, bench.TrajectoryFromTable(s, t))
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "kvcsd-bench: wrote %s\n", path)
	}

	figRequested := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fig" {
			figRequested = true
		}
	})
	if *remoteTrace != "" {
		if err := runRemoteTraceDemo(s, out, *remoteTrace); err != nil {
			fail(err)
		}
		if !figRequested {
			return
		}
	}
	obsRequested := *traceFile != "" || *metrics || *sampleInterval > 0 || *sampleCSV != ""
	if obsRequested && !figRequested {
		*fig = "stages"
	}

	want := func(names ...string) bool {
		if *fig == "all" {
			return true
		}
		for _, n := range names {
			if strings.EqualFold(*fig, n) {
				return true
			}
		}
		return false
	}
	ran := false
	// show prints a figure and mirrors it into -json-dir.
	show := func(t *bench.Table) {
		t.Print(out)
		emit(t)
		ran = true
	}

	if want("table1", "1") {
		bench.Table1().Print(out)
		ran = true
	}
	if want("7a", "7b", "7") {
		a, b, err := bench.Fig7(s)
		if err != nil {
			fail(err)
		}
		if want("7a", "7") {
			show(a)
		}
		if want("7b", "7") {
			show(b)
		}
	}
	if want("8") {
		show(must(bench.Fig8(s)))
	}
	if want("9") {
		show(must(bench.Fig9(s)))
	}
	if want("10a", "10b", "10") {
		a, b, err := bench.Fig10(s)
		if err != nil {
			fail(err)
		}
		if want("10a", "10") {
			show(a)
		}
		if want("10b", "10") {
			show(b)
		}
	}
	if want("array") {
		show(must(bench.ArrayScaling(s, *devices, *replicas)))
	}
	if want("failover") {
		show(must(bench.FailoverLatency(s)))
	}
	if want("fairness") {
		show(must(bench.OverloadFairness(s)))
	}
	if want("scrub") {
		show(must(bench.ScrubOverhead(s)))
	}
	if want("compactsplit") {
		show(must(bench.CompactSplit(s)))
	}
	if want("stages") || obsRequested {
		// runObserve prints the stage table itself, ahead of the outputs the
		// observability flags add.
		emit(must(runObserve(s, out, *traceFile, *metrics, *sampleInterval, *sampleCSV)))
		ran = true
	}
	if want("ablations") {
		for _, abl := range bench.Ablations {
			show(must(abl(s)))
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "kvcsd-bench: unknown -fig %q (try %s)\n", *fig, figNames)
		os.Exit(2)
	}
}

// runObserve executes the instrumented session, prints its stage table and
// writes whichever other outputs were requested.
func runObserve(s bench.Scale, out io.Writer, traceFile string, metrics bool, sampleInterval time.Duration, sampleCSV string) (*bench.Table, error) {
	res, err := bench.Observe(s, sampleInterval)
	if err != nil {
		return nil, err
	}
	res.Summary.Print(out)
	if metrics {
		fmt.Fprintf(out, "\n== Metrics registry ==\n")
		if err := res.Registry.Dump(out); err != nil {
			return nil, err
		}
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, err
		}
		if err := res.Tracer.WriteChromeTrace(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(out, "\ntrace written to %s (open in https://ui.perfetto.dev)\n", traceFile)
	}
	if sampleCSV != "" {
		w := out
		if sampleCSV != "-" {
			f, err := os.Create(sampleCSV)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			w = f
		} else {
			fmt.Fprintf(out, "\n== Sampler time series ==\n")
		}
		if err := res.Sampler.WriteCSV(w); err != nil {
			return nil, fmt.Errorf("write sampler csv: %w", err)
		}
		if sampleCSV != "-" {
			fmt.Fprintf(out, "\nsampler time series written to %s\n", sampleCSV)
		}
	}
	return res.Summary, nil
}
