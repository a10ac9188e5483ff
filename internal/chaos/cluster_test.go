package chaos

import "testing"

// TestClusterCampaignLinearizable is the acceptance campaign: >= 100 seeded
// scenarios of leader kills, partitions, isolations, and mid-migration power
// cuts, every recorded history linearizable.
func TestClusterCampaignLinearizable(t *testing.T) {
	opts := DefaultClusterOptions()
	if opts.Scenarios < 100 {
		t.Fatalf("campaign must cover >= 100 scenarios, got %d", opts.Scenarios)
	}
	res := RunCluster(opts)
	if res.Violations != 0 {
		t.Fatalf("campaign found %d linearizability violations\n%s\n%s",
			res.Violations, res.Summary(), res.FirstViolation())
	}
	// The campaign must actually have exercised faults and concurrency.
	var elections int64
	unknown := 0
	kinds := map[string]bool{}
	for _, s := range res.Scenarios {
		elections += s.Elections
		unknown += s.Unknown
		kinds[s.Nemesis] = true
	}
	if elections < int64(opts.Scenarios) {
		t.Fatalf("suspiciously few elections (%d) — nemesis not biting", elections)
	}
	if unknown == 0 {
		t.Fatalf("no ambiguous outcomes in %d scenarios — faults not racing ops", opts.Scenarios)
	}
	for _, k := range nemesisNames {
		if !kinds[k] {
			t.Fatalf("nemesis kind %q never ran", k)
		}
	}
	checkSummary(t, "consensus", res.Summary())
}

// TestClusterChaosSmoke is the short CI campaign run under -race.
func TestClusterChaosSmoke(t *testing.T) {
	opts := DefaultClusterOptions()
	opts.Scenarios = 10
	res := RunCluster(opts)
	if res.Violations != 0 {
		t.Fatalf("smoke campaign found violations\n%s\n%s", res.Summary(), res.FirstViolation())
	}
}

// TestStaleReadNegativeControl proves the checker has teeth: running the
// same campaign with the deliberately broken read path (no read-index, reads
// served by whatever replica rotation lands on) MUST produce violations.
func TestStaleReadNegativeControl(t *testing.T) {
	opts := DefaultClusterOptions()
	opts.Scenarios = 40
	opts.UnsafeStaleReads = true
	res := RunCluster(opts)
	if res.Violations == 0 {
		t.Fatalf("negative control failed: stale-read bug not caught in %d scenarios\n%s",
			opts.Scenarios, res.Summary())
	}
}
