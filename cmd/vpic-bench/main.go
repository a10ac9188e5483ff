// Command vpic-bench regenerates the paper's macro-benchmark figures
// (Figures 11 and 12): a synthetic VPIC particle dump is loaded into both
// KV-CSD and the RocksDB-like baseline, a secondary index is built on the
// kinetic-energy attribute, and energy-threshold queries run at several
// selectivity levels.
//
// Usage:
//
//	vpic-bench                      # both figures at default scale
//	vpic-bench -fig 12 -scale 4     # Figure 12 with 4x more particles
//	vpic-bench -particles 65536     # particles per file, explicitly
//	vpic-bench -json-dir out/       # BENCH_11.json and BENCH_12.json
package main

import (
	"flag"
	"fmt"
	"os"

	"kvcsd/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 11, 12, all")
	scale := flag.Int("scale", 1, "multiply dataset sizes by this factor")
	particles := flag.Int("particles", 0, "particles per file (overrides -scale for the dataset)")
	files := flag.Int("files", 0, "number of particle files (default 16, as the paper)")
	seed := flag.Int64("seed", 1, "simulation seed")
	jsonDir := flag.String("json-dir", "", "also write each figure as DIR/BENCH_<fig>.json")
	flag.Parse()

	s := bench.DefaultScale().Multiply(*scale)
	s.Seed = *seed
	if *particles > 0 {
		s.VPICParticlesPerFile = *particles
	}
	if *files > 0 {
		s.VPICFiles = *files
	}

	fmt.Fprintf(os.Stderr, "vpic-bench: %d files x %d particles (%d total, %.1f MiB)\n",
		s.VPICFiles, s.VPICParticlesPerFile, s.VPICFiles*s.VPICParticlesPerFile,
		float64(s.VPICFiles*s.VPICParticlesPerFile*48)/(1<<20))

	res, err := bench.RunMacro(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vpic-bench: %v\n", err)
		os.Exit(1)
	}
	emit := func(t *bench.Table) {
		if *jsonDir == "" {
			return
		}
		path, err := bench.WriteTrajectory(*jsonDir, bench.TrajectoryFromTable(s, t))
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpic-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "vpic-bench: wrote %s\n", path)
	}
	switch *fig {
	case "11":
		res.Fig11.Print(os.Stdout)
		emit(res.Fig11)
	case "12":
		res.Fig12.Print(os.Stdout)
		emit(res.Fig12)
	case "all":
		res.Fig11.Print(os.Stdout)
		res.Fig12.Print(os.Stdout)
		emit(res.Fig11)
		emit(res.Fig12)
	default:
		fmt.Fprintf(os.Stderr, "vpic-bench: unknown -fig %q (try 11, 12, all)\n", *fig)
		os.Exit(2)
	}
}
