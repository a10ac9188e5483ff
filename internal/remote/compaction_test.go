package remote

import (
	"bytes"
	"fmt"
	"testing"

	"kvcsd/internal/compaction"
	"kvcsd/internal/device"
	"kvcsd/internal/server"
)

// startColdServer starts a single-device server whose device carries a cold
// zone tier and compacts quickly at test scale.
func startColdServer(t *testing.T) string {
	t.Helper()
	opts := device.DefaultOptions()
	opts.Seed = 23
	opts.SSD.ZoneSize = 256 << 10
	opts.SSD.NumZones = 2048
	opts.SSD.ColdZones = 256
	opts.Engine.IngestBufferBytes = 16 << 10
	opts.Engine.SortBudgetBytes = 64 << 10
	opts.Engine.ColdHeatThreshold = 1
	opts.Engine.ColdMigrateBatch = 64
	srv := server.NewDevice(opts, server.DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

// The full remote compaction-control surface: install a config, compact,
// read live progress and the stats compaction section, then sweep the cold
// tier — all over TCP frames.
func TestRemoteCompactionControl(t *testing.T) {
	addr := startColdServer(t)
	cl, err := Dial(addr, DefaultOptions())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	got, err := cl.SetCompactionPolicy(compaction.Config{PipelineWidth: 2})
	if err != nil {
		t.Fatalf("set config: %v", err)
	}
	if got.PipelineWidth != 2 {
		t.Fatalf("config echo: %+v", got)
	}
	if got, err = cl.CompactionPolicy(); err != nil || got.PipelineWidth != 2 {
		t.Fatalf("config query: %+v err=%v", got, err)
	}

	ks, err := cl.CreateKeyspace("remote-tiers")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	const n = 4000
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64) }
	for i := 0; i < n; i++ {
		if err := ks.BulkPut([]byte(fmt.Sprintf("key-%06d", i)), val(i)); err != nil {
			t.Fatalf("bulkput %d: %v", i, err)
		}
	}
	if err := ks.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := ks.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := ks.WaitCompacted(); err != nil {
		t.Fatalf("wait: %v", err)
	}

	pr, done, err := ks.CompactionProgress()
	if err != nil || !done {
		t.Fatalf("progress: done=%v err=%v", done, err)
	}
	if pr.BytesMoved == 0 || pr.DeviceRuns == 0 || pr.Occupancy != 0 {
		t.Fatalf("progress after compaction: %+v", pr)
	}

	rep, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	found := false
	for _, row := range rep.Compactions {
		if row.Keyspace == "remote-tiers" && row.Progress.BytesMoved > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stats compaction section missing keyspace: %+v", rep.Compactions)
	}

	moved, err := cl.MigrateCold(0)
	if err != nil {
		t.Fatalf("migrate cold: %v", err)
	}
	if moved == 0 {
		t.Fatal("cold sweep moved no zones")
	}
	for i := 0; i < n; i += 131 {
		v, ok, err := ks.Get([]byte(fmt.Sprintf("key-%06d", i)))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d after cold migration: ok=%v err=%v", i, ok, err)
		}
	}
}
