package chaos

import (
	"path/filepath"
	"strings"
	"testing"

	"kvcsd/internal/golden"
)

// checkSummary is the campaigns' half of the model gate: a campaign is seeded
// and runs on the virtual clock, so the summary its main test already
// computes must equal testdata/<campaign>.summary.golden byte for byte
// (`go test ./internal/chaos/ -update` rewrites them). Equality with a
// committed file also proves what rerunning the campaign and comparing the
// two summaries did.
func checkSummary(t *testing.T, campaign, summary string) {
	t.Helper()
	golden.Check(t, filepath.Join("testdata", campaign+".summary.golden"), []byte(summary))
}

// TestCampaign runs the full default campaign: >= 200 seeded crash points
// across load and compaction, every one of which must recover with zero lost
// acked-then-synced writes, zero torn records surfaced, and secondary indexes
// in exact agreement with primaries.
func TestCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is long")
	}
	res := Run(DefaultOptions())
	if got := len(res.Points); got < 200 {
		t.Fatalf("campaign covered %d crash points, want >= 200", got)
	}
	if res.Failures != 0 {
		for _, pt := range res.Points {
			if pt.Err != "" {
				t.Errorf("%s cut=%d: %s", pt.Phase, pt.Cut, pt.Err)
			}
		}
		t.Fatalf("%d/%d crash points failed", res.Failures, len(res.Points))
	}
	// The campaign must actually exercise torn-write repair somewhere, or the
	// crash points are all landing on quiesced media.
	var torn, frames int
	for _, pt := range res.Points {
		torn += pt.TornRecords
		frames += pt.RecoveredFrames
	}
	if torn == 0 && frames == 0 {
		t.Fatal("campaign never saw a torn record or rolled a frame forward")
	}
	if !strings.Contains(res.Summary(), "failures=0") {
		t.Fatalf("summary disagrees with result:\n%s", res.Summary())
	}
	checkSummary(t, "crash", res.Summary())
}

// TestCampaignSeedSensitivity: a different seed must still pass but may tear
// different bytes — only invariants are asserted, not identical summaries.
func TestCampaignSeedSensitivity(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 42
	opts.Ops = 64
	opts.CutEvery = 16
	opts.CompactionCuts = 2
	res := Run(opts)
	if res.Failures != 0 {
		t.Fatalf("seed 42 campaign failed:\n%s", res.Summary())
	}
}
