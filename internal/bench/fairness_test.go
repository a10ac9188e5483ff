package bench

import (
	"bytes"
	"testing"
)

// TestOverloadFairnessSmoke runs the overload-fairness harness and asserts
// the acceptance shape: under a 2x bulk flood the well-behaved readers keep
// near-equal throughput (Jain >= 0.9), their latency-lane p99 degrades at
// most 2x versus the uncontended phase, none of their requests are shed, and
// the abusive tenant is the one absorbing the sheds. The harness is a seeded
// virtual-time simulation, so these bounds are exact, not statistical.
func TestOverloadFairnessSmoke(t *testing.T) {
	tab, err := OverloadFairness(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, DefaultScale(), tab)
	// 3 solo readers + 3 overload readers + writer + flood + summary.
	if len(tab.Rows) != 9 {
		t.Fatalf("table has %d rows, want 9", len(tab.Rows))
	}
	summary := len(tab.Rows) - 1

	if j := tab.Float(summary, "jain"); j < 0.9 {
		t.Errorf("Jain's index %.4f over the readers' overload throughputs, want >= 0.9", j)
	}
	if r := tab.Float(summary, "p99_ratio"); r <= 0 || r > 2.0 {
		t.Errorf("reader p99 degraded %.2fx under overload, want (0, 2.0]", r)
	}
	for i := 3; i <= 6; i++ { // overload readers + writer
		if shed := tab.Rows[i][tab.col("shed")]; shed != "0" {
			t.Errorf("well-behaved tenant %s shed %s requests", tab.Rows[i][1], shed)
		}
	}
	if shed := tab.Float(7, "shed"); shed == 0 {
		t.Error("abusive tenant was never shed: the per-tenant quota is not biting")
	}

	var buf bytes.Buffer
	tab.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty table render")
	}
}
