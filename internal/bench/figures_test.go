package bench

import (
	"os"
	"testing"
)

// TestArrayFailoverScrubGolden pins the three figures no shape test runs, at
// the scale kvcsd-bench writes them (array: -devices 4, the committed sweep).
func TestArrayFailoverScrubGolden(t *testing.T) {
	s := DefaultScale()
	for _, fig := range []func() (*Table, error){
		func() (*Table, error) { return ArrayScaling(s, 4, 2) },
		func() (*Table, error) { return FailoverLatency(s) },
		func() (*Table, error) { return ScrubOverhead(s) },
	} {
		tab, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		if testing.Verbose() {
			tab.Print(os.Stderr)
		}
		checkGolden(t, s, tab)
	}
}
