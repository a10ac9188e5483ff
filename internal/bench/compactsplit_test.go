package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestCompactSplitShape runs the compaction-split figure and asserts the
// subsystem's acceptance shape: under concurrent foreground load the
// collaborative rows (a host assist loop attached) finish compaction faster
// than device-only at width 4 and stay within 1 % of it at width 1, the
// parallel device pipeline (width 4) beats the sequential baseline (width 1)
// with and without the assist loop without degrading the foreground p99
// beyond a small bound, and the collaborative rows really did split the runs
// across the link. The harness is a seeded virtual-time simulation, so the
// orderings are exact, not statistical; they compare the unrounded
// compaction times, not the table's 4-decimal cells.
func TestCompactSplitShape(t *testing.T) {
	tab, compact, err := compactSplit(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, DefaultScale(), tab)
	checkCompactSplitShape(t, tab, compact)
}

// TestCompactSplitSeedSweep asserts TestCompactSplitShape's shape at seeds
// 1-11, each seed's figure simulated on its own goroutine, at most GOMAXPROCS
// at once. The seed picks the channels each stripe starts on and the
// foreground readers' keys; the shape must not ride on one seed's placement.
func TestCompactSplitSeedSweep(t *testing.T) {
	t.Parallel()
	type outcome struct {
		tab     *Table
		compact []time.Duration
		err     error
	}
	out := make([]outcome, 11)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s := DefaultScale()
			s.Seed = int64(i + 1)
			o := &out[i]
			o.tab, o.compact, o.err = compactSplit(s)
		}()
	}
	wg.Wait()
	for i, o := range out {
		t.Run(fmt.Sprint("seed ", i+1), func(t *testing.T) {
			if o.err != nil {
				t.Fatal(o.err)
			}
			checkCompactSplitShape(t, o.tab, o.compact)
		})
	}
}

// checkCompactSplitShape asserts the figure's shape on one run: tab and the
// rows' unrounded compaction times, in compactSplitSweep's order.
func checkCompactSplitShape(t *testing.T, tab *Table, compact []time.Duration) {
	t.Helper()
	if len(tab.Rows) != len(compactSplitSweep) {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), len(compactSplitSweep))
	}
	// Row layout follows compactSplitSweep: device{1,4}, collaborative{1,4}.
	const (
		dev1, dev4, col1, col4 = 0, 1, 2, 3
	)

	// Tentpole: the load-driven split beats device-only at the parallel
	// pipeline width. At width 1 it may trail device-only by at most 1 %: the
	// split changes only the key merge, and releasing its runs to the LIFO
	// free-zone pool in another order moves the value buckets to other zones,
	// which can slow the value scatter by more than the merge gains
	// (measured at seed 1: 86.921 vs 90.455 ms, collaborative ahead).
	for _, w := range []struct {
		col, dev int
		width    string
	}{{col1, dev1, "1"}, {col4, dev4, "4"}} {
		c, d := compact[w.col], compact[w.dev]
		t.Logf("width %s: collaborative %v, device-only %v", w.width, c, d)
		if w.col == col1 {
			if c-d > d/100 {
				t.Errorf("width 1: collaborative compaction %v more than 1%% slower than device-only %v", c, d)
			}
		} else if c >= d {
			t.Errorf("width %s: collaborative compaction %v not faster than device-only %v", w.width, c, d)
		}
	}
	// The parallel pipeline beats the sequential baseline per row pair...
	for _, pair := range [][2]int{{dev4, dev1}, {col4, col1}} {
		if par, seq := compact[pair[0]], compact[pair[1]]; par >= seq {
			t.Errorf("row %d: pipelined compaction %v not faster than sequential %v", pair[0], par, seq)
		}
		// ...at comparable foreground latency (the widths share the same
		// probe workload).
		p4, p1 := tab.Float(pair[0], "fg_p99_ms"), tab.Float(pair[1], "fg_p99_ms")
		if p4 > p1*1.15 {
			t.Errorf("row %d: pipelined fg p99 %.3fms vs sequential %.3fms, want within 15%%", pair[0], p4, p1)
		}
	}
	// The collaborative planner split the runs; without a loop the device
	// merged them all.
	for _, row := range []int{col1, col4} {
		if hr, dr := tab.Float(row, "host_runs"), tab.Float(row, "device_runs"); hr == 0 || dr == 0 {
			t.Errorf("collaborative row %d split %v/%v, want both sides engaged", row, hr, dr)
		}
	}
	if dr := tab.Float(dev1, "device_runs"); dr == 0 {
		t.Error("device-only row merged no runs on the device")
	}

	var buf bytes.Buffer
	tab.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty table render")
	}
}
