package kvcsd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"kvcsd/internal/golden"
	"kvcsd/internal/obs"
)

// smallTraceRun executes a tiny traced workload — one Store and one Retrieve
// against a fresh keyspace — and returns the tracer. The simulation is fully
// deterministic, so the resulting trace is byte-stable per code version.
func smallTraceRun(t *testing.T) (*System, *obs.Tracer) {
	t.Helper()
	opts := DefaultOptions()
	opts.Trace = true
	opts.Metrics = true
	sys := New(&opts)
	err := sys.Run(func(p *Proc) error {
		ks, err := sys.Client.CreateKeyspace(p, "tiny")
		if err != nil {
			return err
		}
		if err := ks.Put(p, []byte("k1"), []byte("hello")); err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		if err := ks.WaitCompacted(p); err != nil {
			return err
		}
		v, ok, err := ks.Get(p, []byte("k1"))
		if err != nil || !ok || !bytes.Equal(v, []byte("hello")) {
			return fmt.Errorf("get: ok=%v err=%v v=%q", ok, err, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, sys.Tracer()
}

func TestTraceExportGolden(t *testing.T) {
	_, tr := smallTraceRun(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "trace_small.json"), buf.Bytes())
}

func TestTraceExportWellFormed(t *testing.T) {
	_, tr := smallTraceRun(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	// Perfetto/chrome://tracing accept an object with a traceEvents array of
	// events carrying ph/ts/dur/pid/tid.
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var lastTs float64 = -1
	nRoots := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		if ev.Ts < lastTs {
			t.Fatalf("X events not in monotonic ts order: %v after %v", ev.Ts, lastTs)
		}
		lastTs = ev.Ts
		if ev.Dur < 0 {
			t.Fatalf("negative duration on %q", ev.Name)
		}
		if _, ok := ev.Args["total_ns"]; ok {
			nRoots++
		}
	}
	if nRoots < 3 { // CreateKeyspace + Store + Retrieve
		t.Fatalf("expected >=3 root command events, found %d", nRoots)
	}

	// Span-tree checks: children nest inside their parents, and every root
	// command's stage durations partition the client-observed latency.
	for _, s := range tr.Finished() {
		if p := s.Parent(); p != nil {
			if s.Start() < p.Start() || s.EndTime() > p.EndTime() {
				t.Errorf("span %q [%d,%d] escapes parent %q [%d,%d]",
					s.Name(), s.Start(), s.EndTime(), p.Name(), p.Start(), p.EndTime())
			}
			continue
		}
		if !strings.HasPrefix(s.Name(), "cmd:") {
			continue // job spans stage media time only, not SoC compute
		}
		total, sum := s.Duration(), s.StageSum()
		if total <= 0 {
			t.Errorf("root %q has non-positive duration %v", s.Name(), total)
			continue
		}
		diff := total - sum
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.01*float64(total) {
			t.Errorf("root %q: stages sum to %v but client latency is %v (>1%% apart); stages=%v",
				s.Name(), sum, total, s.Stages())
		}
	}
}

func TestTraceStageHistogramsPopulated(t *testing.T) {
	sys, _ := smallTraceRun(t)
	reg := sys.Registry()
	if reg == nil {
		t.Fatal("registry disabled")
	}
	for _, name := range []string{"Store/queue", "Store/link", "Store/service", "Store/total", "Retrieve/total"} {
		if reg.Histogram(name).Count() == 0 {
			t.Errorf("histogram %s empty; have %v", name, reg.HistogramNames())
		}
	}
}
