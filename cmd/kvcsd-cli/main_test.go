package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"kvcsd/internal/array"
	"kvcsd/internal/server"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-out, ferr
}

// smokeConfig is the flag defaults at a size a test can afford.
func smokeConfig() cliConfig {
	return cliConfig{devices: 2, replicas: 2, keys: 2000, valueSize: 32, keyspaces: 1, queries: 100, seed: 1, ksName: "data"}
}

// step runs one subcommand and requires every want substring in its output.
func step(t *testing.T, cfg cliConfig, cmd string, args []string, want ...string) {
	t.Helper()
	out, err := capture(t, func() error { return dispatch(cfg, cmd, args) })
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", cmd, args, err, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("%s %v: output lacks %q:\n%s", cmd, args, w, out)
		}
	}
}

// TestLocalSmoke runs the everyday verbs against the in-process simulation:
// every invocation rebuilds the same seeded cluster and preloads it.
func TestLocalSmoke(t *testing.T) {
	cfg := smokeConfig()
	step(t, cfg, "put", []string{"mykey", "myvalue"}, `put "mykey" (7 bytes) into data: replicated to devices`)
	hexKey := fmt.Sprintf("0x%x", cliKey(cfg.seed, 0))
	step(t, cfg, "get", []string{hexKey}, "get "+hexKey+": 32 bytes in")
	step(t, cfg, "get", []string{"absent"}, "get absent: not found")
	step(t, cfg, "scan", []string{"-limit", "5"}, "scan data: 5 pairs across 2 shards")
	step(t, cfg, "compact", nil, "state=COMPACTED pairs=2000", "compactions:")
	step(t, cfg, "compact", []string{"-width", "1"}, "installed compaction config: width=1", "state=COMPACTED pairs=2000")
	step(t, cfg, "stats", nil, "array: 2 devices, 2 replicas, 2000 keys preloaded", "virtual time:")

	if _, err := capture(t, func() error { return dispatch(cfg, "power-cut", []string{"-dev", "2"}) }); err == nil ||
		err.Error() != "device 2 out of range (0..1)" {
		t.Errorf("power-cut -dev 2 on a 2-device fleet: %v", err)
	}
	if _, err := capture(t, func() error { return dispatch(cfg, "compact", []string{"-width", "-1"}) }); err == nil ||
		err.Error() != "compact: -width -1 is negative" {
		t.Errorf("compact -width -1: %v", err)
	}
	if _, err := capture(t, func() error { return dispatch(cfg, "put", []string{"only-a-key"}) }); err == nil ||
		err.Error() != "usage: kvcsd-cli put <key> <value>" {
		t.Errorf("put with one operand: %v", err)
	}
}

// TestRemoteSmoke runs the same verbs with -addr against an in-process array
// server: no preload there, so the sequence builds its own state.
func TestRemoteSmoke(t *testing.T) {
	opts := array.DefaultOptions()
	opts.Devices = 2
	opts.Replicas = 2
	srv := server.NewArray(opts, server.DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()

	cfg := smokeConfig()
	cfg.addr = addr.String()
	step(t, cfg, "put", []string{"k1", "v1"}, `put "k1" (2 bytes) into data on `+cfg.addr)
	step(t, cfg, "put", []string{"k2", "v2"}, `put "k2"`)
	step(t, cfg, "compact", []string{"-width", "2"}, "installed compaction config: width=2", "state=COMPACTED pairs=2")
	step(t, cfg, "compact", []string{"-status"}, "data: done=true")
	step(t, cfg, "get", []string{"k1"}, "get k1: 2 bytes in", "value: 0x7631")
	step(t, cfg, "get", []string{"absent"}, "get absent: not found")
	step(t, cfg, "scan", nil, "scan data: 2 pairs in")
	step(t, cfg, "stats", nil, "2 device(s)", "ring:", "compactions:", "rpc gateway:")
	step(t, cfg, "scrub", []string{"-dev", "1"}, "scrub device 1 on "+cfg.addr)

	if _, err := capture(t, func() error { return dispatch(cfg, "put", []string{"only-a-key"}) }); err == nil ||
		err.Error() != "usage: kvcsd-cli -addr host:port put <key> <value>" {
		t.Errorf("remote put with one operand: %v", err)
	}
	if _, err := capture(t, func() error { return dispatch(cfg, "recover", []string{"-dev", "2"}) }); err == nil {
		t.Error("recover -dev 2 against a 2-device server succeeded")
	}
}
