package client

import (
	"bytes"
	"testing"

	"kvcsd/internal/compaction"
	"kvcsd/internal/sim"
)

// Collaborative compaction over the full NVMe path: a host merge loop serves
// jobs, the device splits runs, and the compacted keyspace reads correctly.
func TestHostMergeEndToEnd(t *testing.T) {
	fx := newFixture()
	fx.env.Go("host-assist", func(p *sim.Proc) {
		_ = fx.cl.ServeHostMerges(p, nil)
	})
	fx.run(t, func(p *sim.Proc) {
		got, err := fx.cl.SetCompactionConfig(p, compaction.Config{PipelineWidth: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got.PipelineWidth != 4 {
			t.Fatalf("config echo: %+v", got)
		}
		ks, err := fx.cl.CreateKeyspace(p, "particles")
		if err != nil {
			t.Fatal(err)
		}
		const n = 6000
		for i := 0; i < n; i++ {
			if err := ks.BulkPut(p, key(i), value(i, float32(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ks.Compact(p); err != nil {
			t.Fatal(err)
		}
		if err := ks.WaitCompacted(p); err != nil {
			t.Fatal(err)
		}
		pr, done, err := ks.CompactionProgress(p)
		if err != nil || !done {
			t.Fatalf("progress: done=%v err=%v", done, err)
		}
		if pr.HostRuns == 0 || pr.DeviceRuns == 0 {
			t.Fatalf("split did not engage over NVMe: host=%d device=%d", pr.HostRuns, pr.DeviceRuns)
		}
		if pr.Occupancy != 0 {
			t.Fatalf("pipeline occupancy %d after completion", pr.Occupancy)
		}
		for i := 0; i < n; i += 113 {
			v, found, err := ks.Get(p, key(i))
			if err != nil || !found || !bytes.Equal(v, value(i, float32(i))) {
				t.Fatalf("get %d: found=%v err=%v", i, found, err)
			}
		}
	})
}

// Shutdown with no merge loop must not hang: the planner sees the queue
// unattached and merges device-side.
func TestCollaborativeWithoutLoopOverNVMe(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, _ := fx.cl.CreateKeyspace(p, "k")
		for i := 0; i < 3000; i++ {
			_ = ks.BulkPut(p, key(i), value(i, 0))
		}
		if err := ks.Compact(p); err != nil {
			t.Fatal(err)
		}
		if err := ks.WaitCompacted(p); err != nil {
			t.Fatal(err)
		}
		pr, _, err := ks.CompactionProgress(p)
		if err != nil {
			t.Fatal(err)
		}
		if pr.HostRuns != 0 {
			t.Fatalf("unattached device recorded %d host runs", pr.HostRuns)
		}
	})
}
