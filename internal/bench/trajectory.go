package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// TrajectorySchema is bumped whenever the JSON layout changes incompatibly.
const TrajectorySchema = 1

// Trajectory is the machine-readable form of one figure: the same numbers the
// rendered Table prints plus the exact end clock of every simulation behind
// them. Every figure runs on the virtual clock and is deterministic for a
// given (scale, seed), so two trajectories of one figure are compared with
// diff: testdata/bench-baseline holds the committed one, and the test that
// runs the figure fails on any byte that differs.
type Trajectory struct {
	Schema       int             `json:"schema"`
	Fig          string          `json:"fig"`
	Title        string          `json:"title"`
	Clock        string          `json:"clock"`
	Scale        int             `json:"scale"`
	Seed         int64           `json:"seed"`
	VirtualEndNs []int64         `json:"virtual_end_ns"`
	Rows         []TrajectoryRow `json:"rows"`
	Notes        []string        `json:"notes,omitempty"`
}

// TrajectoryRow is one table row split into identifying labels (the sweep
// variables plus any non-numeric cells) and numeric metrics.
type TrajectoryRow struct {
	Labels  map[string]string  `json:"labels"`
	Metrics map[string]float64 `json:"metrics"`
}

// TrajectoryFromTable converts a rendered Table into a Trajectory. The
// table's Keys columns become labels (the row identity); every other cell is
// parsed as a metric when numeric ("17.7x" ratios and plain numbers both
// count) and as a label otherwise. Cells that parse to non-finite values are
// dropped — JSON has no encoding for them.
func TrajectoryFromTable(s Scale, t *Table) *Trajectory {
	tr := &Trajectory{
		Schema:       TrajectorySchema,
		Fig:          t.Fig,
		Title:        t.Title,
		Clock:        "virtual",
		Scale:        scaleFactor(s),
		Seed:         s.Seed,
		VirtualEndNs: t.VirtualEndNs,
		Notes:        t.Notes,
	}
	for _, row := range t.Rows {
		out := TrajectoryRow{
			Labels:  map[string]string{},
			Metrics: map[string]float64{},
		}
		for i, cell := range row {
			if i >= len(t.Header) {
				break
			}
			name := t.Header[i]
			if slices.Contains(t.Keys, name) {
				out.Labels[name] = cell
				continue
			}
			switch v, finite, ok := parseMetric(cell); {
			case !ok:
				out.Labels[name] = cell
			case finite:
				out.Metrics[name] = v
			}
		}
		tr.Rows = append(tr.Rows, out)
	}
	return tr
}

// parseMetric accepts plain numbers and "NNx" speedup ratios. finite is
// false for a number JSON cannot carry (inf appears when a baseline
// denominator is zero); such cells are dropped, not demoted to labels.
func parseMetric(cell string) (v float64, finite, ok bool) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(cell), "x"), 64)
	return v, v == v && v <= 1e308 && v >= -1e308, err == nil
}

// scaleFactor recovers the -scale multiplier from a Scale by comparing
// against the default; Multiply scales Fig7TotalKeys linearly.
func scaleFactor(s Scale) int {
	def := DefaultScale().Fig7TotalKeys
	if def <= 0 || s.Fig7TotalKeys <= 0 {
		return 1
	}
	f := s.Fig7TotalKeys / def
	if f < 1 {
		return 1
	}
	return f
}

// Encode renders the trajectory as it is stored: indented JSON and a final
// newline.
func (tr *Trajectory) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(tr, "", "  ")
	return append(b, '\n'), err
}

// TrajectoryFileName maps a figure id to its file name.
func TrajectoryFileName(fig string) string { return "BENCH_" + fig + ".json" }

// WriteTrajectory serializes one trajectory to dir/BENCH_<fig>.json and
// returns the path written.
func WriteTrajectory(dir string, tr *Trajectory) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := tr.Encode()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, TrajectoryFileName(tr.Fig))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
