// Command bench-compare diffs two perf trajectories (directories of
// BENCH_<fig>.json files written by kvcsd-bench/vpic-bench -json-dir) and
// exits nonzero when a gated metric regressed beyond tolerance. It is the CI
// regression gate: virtual-clock figures are deterministic for a fixed
// (scale, seed), so any drift there is a real behavior change, while
// wall-clock figures are machine-dependent and only gated with -gate-wall.
// A baselined figure the current run did not produce, or produced with a
// different number of rows, fails the gate whatever its clock: a figure that
// silently stopped being regenerated is not a pass.
//
// Usage:
//
//	bench-compare -baseline testdata/bench-baseline -current out/
//	bench-compare -baseline old/BENCH_7a.json -current new/BENCH_7a.json
//	bench-compare -baseline base/ -current out/ -tolerance 0.25 -gate-wall
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"kvcsd/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 = pass, 1 = the gate failed (regression, missing
// figure, row-count mismatch), 2 = it could not compare at all.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench-compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "baseline trajectory file or directory")
	current := fs.String("current", "", "current trajectory file or directory")
	tolerance := fs.Float64("tolerance", 0.15, "allowed relative drift before a gated metric counts as a regression")
	gateWall := fs.Bool("gate-wall", false, "also gate wall-clock figures (machine-dependent; off by default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *baseline == "" || *current == "" {
		fmt.Fprintln(stderr, "bench-compare: -baseline and -current are required")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench-compare: %v\n", err)
		return 2
	}

	basePaths, err := trajectoryPaths(*baseline)
	if err != nil {
		return fail(err)
	}
	if len(basePaths) == 0 {
		return fail(fmt.Errorf("no BENCH_*.json files under %s", *baseline))
	}

	var regressions []bench.Regression
	compared, skippedWall, missing, mismatched := 0, 0, 0, 0
	for _, bp := range basePaths {
		base, err := bench.ReadTrajectory(bp)
		if err != nil {
			return fail(err)
		}
		cp := counterpart(*current, bp)
		cur, err := bench.ReadTrajectory(cp)
		if os.IsNotExist(err) {
			fmt.Fprintf(stdout, "MISSING  %-12s baseline has %s but current run did not produce it\n",
				base.Fig, filepath.Base(bp))
			missing++
			continue
		}
		if err != nil {
			return fail(err)
		}
		if len(cur.Rows) != len(base.Rows) {
			// Rows are matched by label, so a dropped row would otherwise
			// just not be compared.
			fmt.Fprintf(stdout, "ROWS     %-12s %d rows vs %d in the baseline\n", base.Fig, len(cur.Rows), len(base.Rows))
			mismatched++
		}
		regs := bench.CompareTrajectories(base, cur, *tolerance)
		gated := base.Clock != bench.ClockWall || *gateWall
		tag := "ok"
		if len(regs) > 0 {
			tag = fmt.Sprintf("%d regression(s)", len(regs))
			if !gated {
				tag += " [wall clock, not gated]"
			}
		}
		fmt.Fprintf(stdout, "%-8s %-12s %d rows vs %d, clock=%s: %s\n",
			verdict(len(regs) > 0 && gated), base.Fig, len(cur.Rows), len(base.Rows), base.Clock, tag)
		for _, r := range regs {
			fmt.Fprintf(stdout, "         %s\n", r)
		}
		if gated {
			regressions = append(regressions, regs...)
		} else if len(regs) > 0 {
			skippedWall++
		}
		compared++
	}

	fmt.Fprintf(stdout, "\nbench-compare: %d figure(s) compared, %d missing, %d with a different row count, tolerance %.0f%%\n",
		compared, missing, mismatched, *tolerance*100)
	if skippedWall > 0 {
		fmt.Fprintf(stdout, "bench-compare: %d wall-clock figure(s) drifted but are not gated (use -gate-wall)\n", skippedWall)
	}
	if len(regressions) > 0 || missing > 0 || mismatched > 0 {
		fmt.Fprintf(stdout, "bench-compare: FAIL — %d gated regression(s), %d missing figure(s), %d row-count mismatch(es)\n",
			len(regressions), missing, mismatched)
		return 1
	}
	fmt.Fprintln(stdout, "bench-compare: PASS")
	return 0
}

func verdict(bad bool) string {
	if bad {
		return "FAIL"
	}
	return "PASS"
}

// trajectoryPaths expands a file-or-directory argument into the sorted list
// of trajectory files it names.
func trajectoryPaths(arg string) ([]string, error) {
	fi, err := os.Stat(arg)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return []string{arg}, nil
	}
	paths, err := filepath.Glob(filepath.Join(arg, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// counterpart maps a baseline trajectory path into the current tree: same
// file name under the current directory, or the current argument itself when
// it names a single file.
func counterpart(current, basePath string) string {
	fi, err := os.Stat(current)
	if err == nil && !fi.IsDir() {
		return current
	}
	return filepath.Join(current, filepath.Base(basePath))
}
