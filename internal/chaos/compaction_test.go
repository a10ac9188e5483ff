package chaos

import "testing"

// TestCompactionChaosSmoke runs only the compaction-subsystem crash points —
// power cuts inside a pipelined collaborative compaction and inside a
// cold-migration sweep — sized to stay fast enough for the race-detector CI
// step. Every point must recover clean, and the pipeline points must show
// the host assist loop actually merged jobs (otherwise the cuts never landed
// on a split compaction and the phase tests nothing).
func TestCompactionChaosSmoke(t *testing.T) {
	opts := DefaultOptions()
	opts.Ops = 192
	opts.CutEvery = opts.Ops + 1 // no load-phase points
	opts.CompactionCuts = 0
	opts.PipelineCuts = 6
	opts.MigrationCuts = 4
	res := Run(opts)
	if got := len(res.Points); got != opts.PipelineCuts+opts.MigrationCuts {
		t.Fatalf("campaign covered %d crash points, want %d", got, opts.PipelineCuts+opts.MigrationCuts)
	}
	if res.Failures != 0 {
		t.Fatalf("compaction chaos failed:\n%s", res.Summary())
	}
	var hostJobs, migrated int
	for _, pt := range res.Points {
		switch pt.Phase {
		case "pipeline":
			hostJobs += pt.HostJobs
		case "migrate":
			migrated++
		default:
			t.Errorf("unexpected phase %q", pt.Phase)
		}
	}
	if hostJobs == 0 {
		t.Error("no pipeline point engaged the host assist loop")
	}
	if migrated != opts.MigrationCuts {
		t.Errorf("ran %d migration points, want %d", migrated, opts.MigrationCuts)
	}
	checkSummary(t, "compaction", res.Summary())
}
