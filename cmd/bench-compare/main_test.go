package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"kvcsd/internal/bench"
)

func writeFig(t *testing.T, dir, fig string, rows int) {
	t.Helper()
	tr := &bench.Trajectory{Schema: bench.TrajectorySchema, Fig: fig, Clock: bench.ClockVirtual, Scale: 1, Seed: 1}
	for i := 0; i < rows; i++ {
		tr.Rows = append(tr.Rows, bench.TrajectoryRow{
			Labels:  map[string]string{"n": string(rune('a' + i))},
			Metrics: map[string]float64{"virt_s": 1},
		})
	}
	if _, err := bench.WriteTrajectory(dir, tr); err != nil {
		t.Fatal(err)
	}
}

// TestGateFailsOnMissingAndRowCount drives the three outcomes from temp dirs:
// identical trees pass, a figure the current run did not produce fails, and a
// figure produced with fewer rows fails — both used to print and exit 0.
func TestGateFailsOnMissingAndRowCount(t *testing.T) {
	base := t.TempDir()
	writeFig(t, base, "7a", 3)
	writeFig(t, base, "array", 2)

	cases := []struct {
		name     string
		figs     map[string]int
		wantExit int
		wantOut  string
	}{
		{"same", map[string]int{"7a": 3, "array": 2}, 0, "bench-compare: PASS"},
		{"missing figure", map[string]int{"7a": 3}, 1, "MISSING  array"},
		{"dropped row", map[string]int{"7a": 2, "array": 2}, 1, "ROWS     7a"},
	}
	for _, tc := range cases {
		cur := filepath.Join(t.TempDir(), "out")
		for fig, rows := range tc.figs {
			writeFig(t, cur, fig, rows)
		}
		var out, errOut bytes.Buffer
		got := run([]string{"-baseline", base, "-current", cur}, &out, &errOut)
		if got != tc.wantExit || !strings.Contains(out.String(), tc.wantOut) {
			t.Errorf("%s: exit %d, want %d with %q in the output:\n%s%s", tc.name, got, tc.wantExit, tc.wantOut, out.String(), errOut.String())
		}
	}
}
