package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestObserveStageSumsAndSampler(t *testing.T) {
	// The session kvcsd-bench -fig stages runs, so the golden is its output.
	s := DefaultScale()
	res, err := Observe(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, s, res.Summary)
	// The acceptance bar: every command's stages sum to its client-observed
	// latency within 1%. The attribution model is exact, so in practice this
	// is 0 — anything above the bar is a real regression.
	if res.MaxStageErr > 0.01 {
		t.Errorf("stage attribution off by %.2f%% (worst command)", res.MaxStageErr*100)
	}
	if len(res.Summary.Rows) < 4 {
		t.Errorf("summary covers only %d opcodes", len(res.Summary.Rows))
	}

	// The sampler must have recorded a timeline spanning the compaction, and
	// the bg_jobs column must show the background job coming and going.
	rows := res.Sampler.Rows()
	if len(rows) < 5 {
		t.Fatalf("sampler recorded only %d rows", len(rows))
	}
	bgCol := -1
	for i, c := range res.Sampler.Header() {
		if c == "bg_jobs" {
			bgCol = i
		}
	}
	if bgCol < 0 {
		t.Fatalf("no bg_jobs column in %v", res.Sampler.Header())
	}
	sawBusy, sawIdle := false, false
	for _, r := range rows {
		if r[bgCol] > 0 {
			sawBusy = true
		} else {
			sawIdle = true
		}
	}
	if !sawBusy || !sawIdle {
		t.Errorf("bg_jobs timeline never transitioned (busy=%v idle=%v)", sawBusy, sawIdle)
	}

	// soc_busy_cores closes exactly: its time-weighted mean over the run is
	// the SoC pool's lifetime utilisation in cores (the bound only absorbs
	// float rounding of the per-row division).
	socCol := len(res.Sampler.Header()) - 1
	if res.Sampler.Header()[socCol] != "soc_busy_cores" {
		t.Fatalf("last sampler column is %q, want soc_busy_cores", res.Sampler.Header()[socCol])
	}
	times := res.Sampler.Times()
	var coreNs float64
	for i := 1; i < len(rows); i++ {
		coreNs += rows[i][socCol] * float64(times[i]-times[i-1])
	}
	mean := coreNs / float64(times[len(times)-1]-times[0])
	want := res.SoC.Utilization() * float64(res.SoC.Capacity())
	if math.Abs(mean-want) > 1e-9*want {
		t.Errorf("soc_busy_cores time-weighted mean %.12f, SoC utilisation × cores %.12f", mean, want)
	}

	var buf bytes.Buffer
	if err := res.Sampler.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "time_s,cmds_per_s,") {
		t.Errorf("csv header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	csvLines := strings.SplitN(buf.String(), "\n", 3)
	if len(csvLines) < 2 || !strings.HasPrefix(csvLines[1], "# units: s,1/s,B/s,") {
		t.Errorf("csv units line = %q", csvLines[1])
	}
}
