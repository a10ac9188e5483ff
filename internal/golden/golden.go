// Package golden compares what a test computed with a committed file, byte
// for byte. The model is deterministic — same seed, same bytes — so there is
// no tolerance: a golden that moves is either a bug or a model change, and a
// model change is reviewed as the diff of the regenerated file.
//
// Linking the package gives the test binary an -update flag:
//
//	go test ./internal/bench/ ./internal/chaos/ -update
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the code under test")

// Check fails t unless got equals the file at path; with -update it rewrites
// the file instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if !bytes.Equal(got, want) {
		w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		w, g = append(w, ""), append(g, "") // one side may have ended
		t.Errorf("%s differs from what the code now produces, first at line %d:\n  - %s\n  + %s\n"+
			"rerun with -update and review the diff if the change is meant",
			path, i+1, w[i], g[i])
	}
}
