package device

import (
	"fmt"
	"testing"

	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// laneOps is what one run of TestChannelLanesClassify reads off the device's
// per-lane channel counters.
type laneOps struct {
	fg, bg     int64 // media operations per lane in the measured phase
	fgWaitNs   int64 // the foreground operations' channel wait
	overlapped int   // gets issued while the compaction job ran
}

// runLanePhase loads a hot keyspace, compacts it and reads it, loads a
// second one, and then, as the measured phase, compacts the second one, reads
// the hot one again, or both at once.
func runLanePhase(t *testing.T, gets, compact bool) laneOps {
	t.Helper()
	env, d := newMetricsDevice()
	var out laneOps
	counter := func(name string) int64 { return d.Registry().LookupCounter("ssd/" + name).Value() }
	env.Go("host", func(p *sim.Proc) {
		defer d.Shutdown()
		key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
		load := func(ks string, n int) {
			mustOK(t, submit(p, d, &nvme.Command{Op: nvme.OpCreateKeyspace, Keyspace: ks}), "create")
			for i := 0; i < n; i += 100 {
				cmd := &nvme.Command{Op: nvme.OpBulkStore, Keyspace: ks}
				for j := i; j < i+100; j++ {
					cmd.Pairs = append(cmd.Pairs, nvme.KVPair{Key: key(j), Value: make([]byte, 200)})
				}
				mustOK(t, submit(p, d, cmd), "bulk store")
			}
		}
		waitCompacted := func(ks string) {
			for !submit(p, d, &nvme.Command{Op: nvme.OpCompactStatus, Keyspace: ks}).Done {
				p.Sleep(100e3)
			}
		}
		load("hot", 500)
		mustOK(t, submit(p, d, &nvme.Command{Op: nvme.OpCompact, Keyspace: "hot"}), "compact hot")
		waitCompacted("hot")
		load("bulk", 8000)

		readHot := func(q *sim.Proc) {
			for i := 0; i < 300; i++ {
				if d.Engine().BackgroundJobs() > 0 {
					out.overlapped++
				}
				mustOK(t, submit(q, d, &nvme.Command{Op: nvme.OpRetrieve, Keyspace: "hot", Key: key(i * 7 % 500)}), "retrieve")
				q.Sleep(20e3)
			}
		}
		readHot(p) // the index cache holds what the measured gets read in every run

		fg0, bg0, w0 := counter("chan_ops/foreground"), counter("chan_ops/background"), counter("chan_wait_ns/foreground")
		var reader *sim.Proc
		if gets {
			reader = env.Go("reader", readHot)
		}
		if compact {
			mustOK(t, submit(p, d, &nvme.Command{Op: nvme.OpCompact, Keyspace: "bulk"}), "compact bulk")
			waitCompacted("bulk")
		}
		if reader != nil {
			p.Join(reader)
		}
		if err := d.Engine().WaitBackgroundIdle(p); err != nil { // the job's last resets
			t.Fatal(err)
		}
		out.fg = counter("chan_ops/foreground") - fg0
		out.bg = counter("chan_ops/background") - bg0
		out.fgWaitNs = counter("chan_wait_ns/foreground") - w0
	})
	env.Run()
	return out
}

func newMetricsDevice() (*sim.Env, *Device) {
	env := sim.NewEnv()
	opts := DefaultOptions()
	opts.SSD.ZoneSize = 256 << 10
	opts.SSD.NumZones = 1024
	opts.Engine.IngestBufferBytes = 16 << 10
	opts.Engine.SortBudgetBytes = 64 << 10
	opts.Metrics = true
	return env, New(env, opts, stats.NewIOStats())
}

func mustOK(t *testing.T, c *nvme.Completion, what string) {
	t.Helper()
	if c.Status != nvme.StatusOK {
		t.Fatalf("%s: %v", what, c.Status)
	}
}

// TestChannelLanesClassify: during a compaction with concurrent gets, the
// per-lane channel counters count every get's media read as foreground and
// every media operation of the compaction as background — each lane counts,
// with both running, what it counts with the other side alone.
func TestChannelLanesClassify(t *testing.T) {
	getsOnly := runLanePhase(t, true, false)
	compactOnly := runLanePhase(t, false, true)
	both := runLanePhase(t, true, true)
	t.Logf("gets alone %+v, compaction alone %+v, both %+v", getsOnly, compactOnly, both)
	if getsOnly.fg == 0 || getsOnly.bg != 0 {
		t.Fatalf("gets alone: %d foreground, %d background ops; want only foreground", getsOnly.fg, getsOnly.bg)
	}
	if compactOnly.bg == 0 {
		t.Fatal("the compaction issued no background media operation")
	}
	if both.overlapped == 0 {
		t.Fatal("no get ran while the compaction did")
	}
	if both.fg != getsOnly.fg+compactOnly.fg || both.bg != compactOnly.bg {
		t.Fatalf("both: %d foreground, %d background ops; want %d and %d", both.fg, both.bg, getsOnly.fg+compactOnly.fg, compactOnly.bg)
	}
	// A foreground read still waits for the operation in service.
	if both.fgWaitNs <= getsOnly.fgWaitNs {
		t.Fatalf("foreground channel wait %d ns with the compaction, %d ns without", both.fgWaitNs, getsOnly.fgWaitNs)
	}
}
