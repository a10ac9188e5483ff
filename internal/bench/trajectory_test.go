package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func sampleTrajectoryTable() *Table {
	t := &Table{
		Fig: "sample", Keys: []string{"threads", "engine"},
		Title:        "sample",
		Header:       []string{"threads", "engine", "write_s", "keys_per_s", "speedup", "write_amp"},
		Notes:        []string{"a note"},
		VirtualEndNs: []int64{1234567, 89},
	}
	t.Add("1", "kvcsd", "0.0100", "100000", "2.5x", "3.5")
	t.Add("1", "rocksdb", "0.0250", "40000", "1.0x", "inf")
	return t
}

func TestTrajectoryFromTable(t *testing.T) {
	s := DefaultScale()
	s.Seed = 7
	tr := TrajectoryFromTable(s, sampleTrajectoryTable())
	if tr.Schema != TrajectorySchema || tr.Fig != "sample" || tr.Clock != "virtual" || tr.Seed != 7 {
		t.Fatalf("header fields wrong: %+v", tr)
	}
	if len(tr.VirtualEndNs) != 2 || tr.VirtualEndNs[0] != 1234567 {
		t.Errorf("end clocks not carried over: %v", tr.VirtualEndNs)
	}
	if len(tr.Rows) != 2 {
		t.Fatalf("rows = %d", len(tr.Rows))
	}
	r0 := tr.Rows[0]
	if r0.Labels["threads"] != "1" || r0.Labels["engine"] != "kvcsd" {
		t.Errorf("key columns not labeled: %+v", r0.Labels)
	}
	if r0.Metrics["speedup"] != 2.5 {
		t.Errorf("speedup ratio not parsed: %v", r0.Metrics)
	}
	if r0.Metrics["write_s"] != 0.01 || r0.Metrics["keys_per_s"] != 100000 {
		t.Errorf("numeric cells not parsed: %v", r0.Metrics)
	}
	// "inf" must be dropped, not stored as a label or a metric.
	r1 := tr.Rows[1]
	if _, ok := r1.Metrics["write_amp"]; ok {
		t.Error("inf cell stored as metric")
	}
	if _, ok := r1.Labels["write_amp"]; ok {
		t.Error("inf cell stored as label")
	}
}

// TestTrajectoryRoundTrip: the file WriteTrajectory leaves is exactly Encode's
// bytes under the figure's name — the same bytes the golden tests compare.
func TestTrajectoryRoundTrip(t *testing.T) {
	tr := TrajectoryFromTable(DefaultScale(), sampleTrajectoryTable())
	path, err := WriteTrajectory(filepath.Join(t.TempDir(), "sub"), tr)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if filepath.Base(path) != "BENCH_sample.json" {
		t.Errorf("file name = %s", filepath.Base(path))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || !bytes.HasSuffix(got, []byte("}\n")) {
		t.Errorf("file holds %q, Encode gives %q", got, want)
	}
}
