package main

import (
	"fmt"
	"io"
	"math"
)

// runSets runs n complete sets — every workload once per set, same seed —
// and prints, per workload and end-to-end metric, each set's value (already a
// median over the set's rounds), the quartiles across the last set's rounds
// where the metric has per-round values, and the largest relative gap between
// sets next to the metric's bound. It returns 1 when a gap exceeds half the
// bound: such a metric cannot tell a regression of its bound from noise.
func runSets(w io.Writer, c *config, n int) int {
	c.setups = 3
	results := map[string][]*runResult{}
	for set := 1; set <= n; set++ {
		for _, wl := range workloads {
			run, err := measure(c, wl, nil)
			if err != nil {
				fmt.Fprintln(w, err)
				return 1
			}
			run.sys.close()
			res := run.res
			if res.failed > 0 {
				fmt.Fprintf(w, "set %d %s: %d of %d operations failed\n", set, wl.name, res.failed, res.attempted)
				return 1
			}
			results[wl.name] = append(results[wl.name], res)
			fmt.Fprintf(w, "set %d %s done\n", set, wl.name)
		}
	}
	status := 0
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n%s\n", wl.name)
		fmt.Fprintf(w, "  %-26s", "metric")
		for set := 1; set <= n; set++ {
			fmt.Fprintf(w, " %12s", fmt.Sprintf("set %d", set))
		}
		fmt.Fprintf(w, " %25s %8s %6s\n", "round q1..q3 (last set)", "gap", "bound")
		for _, d := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			fmt.Fprintf(w, "  %-26s", d.name)
			for _, res := range results[wl.name] {
				v := res.metrics[d.name]
				lo, hi = min(lo, v), max(hi, v)
				fmt.Fprintf(w, " %12.4f", v)
			}
			quart := ""
			if per := results[wl.name][n-1].perRound[d.name]; len(per) > 1 {
				q1, q3 := quartiles(per)
				quart = fmt.Sprintf("%.4f..%.4f", q1, q3)
			}
			gap := (hi - lo) / ((hi + lo) / 2)
			verdict := ""
			if gap > d.bound/2 {
				verdict = "  EXCEEDS HALF THE BOUND"
				status = 1
			}
			fmt.Fprintf(w, " %25s %7.2f%% %5.0f%%%s\n", quart, gap*100, d.bound*100, verdict)
		}
	}
	return status
}
