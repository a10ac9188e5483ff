package chaos

import (
	"strings"
	"testing"
)

// TestCorruptionChaos runs the full campaign: 64 scenarios across the four
// rot nemeses. The invariant is absolute — no scenario may ever serve
// silently wrong bytes — and every scenario with a surviving replica copy
// must converge back to fully byte-exact reads after repair.
func TestCorruptionChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("full corruption campaign is long; see TestCorruptionChaosSmoke")
	}
	res := RunCorruption(DefaultCorruptionOptions())
	assertCorruptionClean(t, res)
	if res.Options.Scenarios < 60 {
		t.Fatalf("campaign ran %d scenarios, want >= 60", res.Options.Scenarios)
	}
	// The campaign must actually have exercised the machinery: rot detected,
	// extents repaired, and the unrepairable nemesis must trip quarantine.
	var detected, repaired, quarantined int64
	for _, sc := range res.Scenarios {
		detected += sc.Detected
		repaired += sc.Repaired
		if sc.Nemesis == rotNemesisNames[rotTwoReplicas] {
			quarantined += sc.Quarantined
		}
	}
	if detected == 0 || repaired == 0 {
		t.Fatalf("campaign exercised nothing: detected=%d repaired=%d\n%s",
			detected, repaired, res.Summary())
	}
	if quarantined == 0 {
		t.Fatalf("two-replica rot never quarantined a zone\n%s", res.Summary())
	}
	checkSummary(t, "corruption", res.Summary())
}

// TestCorruptionChaosSmoke is the CI-sized subset (one scenario per nemesis,
// run under -race by the chaos-smoke job).
func TestCorruptionChaosSmoke(t *testing.T) {
	opts := DefaultCorruptionOptions()
	opts.Scenarios = 4
	res := RunCorruption(opts)
	assertCorruptionClean(t, res)
}

// TestCorruptionNegativeControl disables checksum verification and asserts
// the injected rot now DOES surface as silently wrong answers — the proof
// that the verified-read path is load-bearing, not vacuously green.
func TestCorruptionNegativeControl(t *testing.T) {
	opts := DefaultCorruptionOptions()
	opts.Scenarios = 4
	opts.DisableVerify = true
	res := RunCorruption(opts)
	if res.Wrong == 0 {
		t.Fatalf("verification disabled but zero wrong answers — the campaign "+
			"would not catch a verify bypass\n%s", res.Summary())
	}
	for _, sc := range res.Scenarios {
		if sc.Err != "" {
			t.Fatalf("negative control scenario #%d harness error: %s", sc.Index, sc.Err)
		}
	}
}

func assertCorruptionClean(t *testing.T, res *CorruptionResult) {
	t.Helper()
	if v := res.FirstViolation(); v != "" {
		t.Fatalf("%s\n%s", v, res.Summary())
	}
	if res.Diverged > 0 {
		t.Fatalf("%d repairable scenarios failed to converge\n%s", res.Diverged, res.Summary())
	}
	if !strings.Contains(res.Summary(), "wrong") {
		t.Fatal("summary lost its header")
	}
}
