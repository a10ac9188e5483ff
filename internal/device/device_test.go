package device

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"kvcsd/internal/core"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

func newTestDevice() (*sim.Env, *Device, *stats.IOStats) {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	opts := DefaultOptions()
	opts.SSD.ZoneSize = 256 << 10
	opts.SSD.NumZones = 1024
	opts.Engine.IngestBufferBytes = 16 << 10
	opts.Engine.SortBudgetBytes = 64 << 10
	opts.Engine.StripeWidth = 2
	return env, New(env, opts, st), st
}

// submit sends one command through the queue and waits for its completion.
func submit(p *sim.Proc, d *Device, cmd *nvme.Command) *nvme.Completion {
	return d.Queue().Submit(p, cmd).Wait(p)
}

func TestCommandSurface(t *testing.T) {
	env, d, st := newTestDevice()
	env.Go("host", func(p *sim.Proc) {
		defer d.Shutdown()
		if c := submit(p, d, &nvme.Command{Op: nvme.OpCreateKeyspace, Keyspace: "ks"}); c.Status != nvme.StatusOK {
			t.Fatalf("create: %v", c.Status)
		}
		if c := submit(p, d, &nvme.Command{Op: nvme.OpCreateKeyspace, Keyspace: "ks"}); c.Status != nvme.StatusExists {
			t.Fatalf("dup create: %v", c.Status)
		}
		if c := submit(p, d, &nvme.Command{Op: nvme.OpOpenKeyspace, Keyspace: "nope"}); c.Status != nvme.StatusNotFound {
			t.Fatalf("open missing: %v", c.Status)
		}
		// Store + bulk store.
		if c := submit(p, d, &nvme.Command{Op: nvme.OpStore, Keyspace: "ks", Key: []byte("a"), Value: []byte("1")}); c.Status != nvme.StatusOK {
			t.Fatalf("store: %v", c.Status)
		}
		bulk := &nvme.Command{Op: nvme.OpBulkStore, Keyspace: "ks", Pairs: []nvme.KVPair{
			{Key: []byte("b"), Value: []byte("2")},
			{Key: []byte("c"), Value: []byte("3")},
		}}
		if c := submit(p, d, bulk); c.Status != nvme.StatusOK {
			t.Fatalf("bulk: %v", c.Status)
		}
		// Query before compaction is a state error.
		if c := submit(p, d, &nvme.Command{Op: nvme.OpRetrieve, Keyspace: "ks", Key: []byte("a")}); c.Status != nvme.StatusKeyspaceState {
			t.Fatalf("early retrieve: %v", c.Status)
		}
		// Compact (async ack) + status poll.
		if c := submit(p, d, &nvme.Command{Op: nvme.OpCompact, Keyspace: "ks"}); c.Status != nvme.StatusOK {
			t.Fatalf("compact: %v", c.Status)
		}
		for {
			c := submit(p, d, &nvme.Command{Op: nvme.OpCompactStatus, Keyspace: "ks"})
			if c.Status != nvme.StatusOK {
				t.Fatalf("compact status: %v", c.Status)
			}
			if c.Done {
				break
			}
			p.Sleep(1e6)
		}
		// Retrieve, exist, range.
		c := submit(p, d, &nvme.Command{Op: nvme.OpRetrieve, Keyspace: "ks", Key: []byte("b")})
		if c.Status != nvme.StatusOK || string(c.Value) != "2" {
			t.Fatalf("retrieve: %v %q", c.Status, c.Value)
		}
		if c := submit(p, d, &nvme.Command{Op: nvme.OpRetrieve, Keyspace: "ks", Key: []byte("zz")}); c.Status != nvme.StatusNotFound {
			t.Fatalf("missing retrieve: %v", c.Status)
		}
		c = submit(p, d, &nvme.Command{Op: nvme.OpExist, Keyspace: "ks", Key: []byte("c")})
		if c.Status != nvme.StatusOK || !c.Exists {
			t.Fatalf("exist: %+v", c)
		}
		c = submit(p, d, &nvme.Command{Op: nvme.OpQueryPrimaryRange, Keyspace: "ks"})
		if c.Status != nvme.StatusOK || len(c.Pairs) != 3 {
			t.Fatalf("range: %v %d pairs", c.Status, len(c.Pairs))
		}
		// Info.
		c = submit(p, d, &nvme.Command{Op: nvme.OpKeyspaceInfo, Keyspace: "ks"})
		if c.Status != nvme.StatusOK || c.Info.State != "COMPACTED" || c.Info.Pairs != 3 {
			t.Fatalf("info: %+v", c.Info)
		}
		// Unknown opcode.
		if c := submit(p, d, &nvme.Command{Op: nvme.Opcode(250)}); c.Status != nvme.StatusInvalid {
			t.Fatalf("unknown op: %v", c.Status)
		}
		// Delete.
		if c := submit(p, d, &nvme.Command{Op: nvme.OpDeleteKeyspace, Keyspace: "ks"}); c.Status != nvme.StatusOK {
			t.Fatalf("delete: %v", c.Status)
		}
		if c := submit(p, d, &nvme.Command{Op: nvme.OpDeleteKeyspace, Keyspace: "ks"}); c.Status != nvme.StatusNotFound {
			t.Fatalf("double delete: %v", c.Status)
		}
	})
	env.Run()
	if st.Commands.Value() == 0 {
		t.Fatal("no commands recorded")
	}
}

func TestStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want nvme.Status
	}{
		{nil, nvme.StatusOK},
		{core.ErrKeyspaceNotFound, nvme.StatusNotFound},
		{core.ErrIndexNotFound, nvme.StatusNotFound},
		{core.ErrKeyspaceExists, nvme.StatusExists},
		{core.ErrIndexExists, nvme.StatusExists},
		{core.ErrKeyspaceState, nvme.StatusKeyspaceState},
		{core.ErrDeleted, nvme.StatusKeyspaceState},
		{core.ErrNoZones, nvme.StatusNoSpace},
		{ssd.ErrDeviceCapacity, nvme.StatusNoSpace},
		{core.ErrKeyTooLarge, nvme.StatusInvalid},
		{fmt.Errorf("%w: e: %w", core.ErrIndexFailed, errors.New("range past value")), nvme.StatusInvalid},
		{fmt.Errorf("%w: e: %w", core.ErrIndexFailed, ssd.ErrPoweredOff), nvme.StatusPoweredOff},
		{errors.New("anything else"), nvme.StatusInternal},
	}
	for _, c := range cases {
		if got := statusOf(c.err); got != c.want {
			t.Errorf("statusOf(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	env, d, _ := newTestDevice()
	var completed bool
	env.Go("host", func(p *sim.Proc) {
		h := d.Queue().Submit(p, &nvme.Command{Op: nvme.OpCreateKeyspace, Keyspace: "ks"})
		d.Shutdown()
		c := h.Wait(p)
		completed = c.Status == nvme.StatusOK
	})
	env.Run()
	if !completed {
		t.Fatal("in-flight command dropped at shutdown")
	}
}

// TestDispatchersServeConcurrentCommands: the device runs dispatchersPerCore
// dispatch loops per SoC core, so four commands submitted back to back are
// all in service at once.
func TestDispatchersServeConcurrentCommands(t *testing.T) {
	env, d, _ := newTestDevice()
	env.Go("host", func(p *sim.Proc) {
		defer d.Shutdown()
		var hs []*nvme.Handle
		for i := 0; i < 4; i++ {
			hs = append(hs, d.Queue().Submit(p, &nvme.Command{
				Op: nvme.OpCreateKeyspace, Keyspace: string(rune('a' + i)),
			}))
		}
		for _, h := range hs {
			if c := h.Wait(p); c.Status != nvme.StatusOK {
				t.Fatalf("create failed: %v", c.Status)
			}
		}
	})
	env.Run()
	if d.Engine().Manager().Names()[0] != "a" {
		t.Fatal("keyspaces missing")
	}
}

// TestBulkStoreAllocs: a bulk command's pairs reach the engine as the command
// carries them. Executing one allocates the engine's value slab and a few
// fixed-size objects, never a converted copy of the pair list, which for a
// full 2570-pair message would be another ~140 KB.
func TestBulkStoreAllocs(t *testing.T) {
	const perCmd, runs = 2570, 10
	env := sim.NewEnv()
	opts := DefaultOptions()
	opts.Engine.IngestBufferBytes = 64 << 20
	d := New(env, opts, stats.NewIOStats())
	bulk := func(lo, n int) (*nvme.Command, uint64) {
		cmd := &nvme.Command{Op: nvme.OpBulkStore, Keyspace: "ks", Pairs: make([]nvme.KVPair, n)}
		var slab uint64
		for i := range cmd.Pairs {
			cmd.Pairs[i] = nvme.KVPair{Key: fmt.Appendf(nil, "key-%08d", lo+i), Value: make([]byte, 32)}
			slab += uint64(len(cmd.Pairs[i].Key) + len(cmd.Pairs[i].Value))
		}
		return cmd, slab
	}
	warm, _ := bulk(0, perCmd*(runs+1))
	cmd, slab := bulk(1, perCmd)
	env.Go("host", func(p *sim.Proc) {
		defer d.Shutdown()
		for _, c := range []*nvme.Command{{Op: nvme.OpCreateKeyspace, Keyspace: "ks"}, warm, {Op: nvme.OpSync, Keyspace: "ks"}} {
			if comp := d.execute(p, c); comp.Status != nvme.StatusOK {
				t.Fatalf("%s: %v", c.Op, comp.Status)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := testing.AllocsPerRun(runs, func() {
			if comp := d.execute(p, cmd); comp.Status != nvme.StatusOK {
				t.Fatalf("bulk store: %v", comp.Status)
			}
		})
		runtime.ReadMemStats(&after)
		perCmdBytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		if n > 2 || perCmdBytes > slab+4<<10 {
			t.Fatalf("a %d-pair BulkStore allocated %v times and %d bytes, want at most 2 and the %d-byte slab + 4 KiB",
				perCmd, n, perCmdBytes, slab)
		}
	})
	env.Run()
}
