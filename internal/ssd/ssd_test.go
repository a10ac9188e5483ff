package ssd

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.ZoneSize = 64 << 10 // small zones for tests
	cfg.NumZones = 32
	cfg.ConvBlocks = 1024
	cfg.Channels = 4
	return cfg
}

// run executes fn inside a one-process simulation against a fresh device.
func run(t *testing.T, cfg Config, fn func(p *sim.Proc, d *Device)) (*Device, sim.Time) {
	t.Helper()
	env := sim.NewEnv()
	d := New(env, cfg, stats.NewIOStats())
	env.Go("test", func(p *sim.Proc) { fn(p, d) })
	end := env.Run()
	return d, end
}

func TestZoneStateMachine(t *testing.T) {
	run(t, testCfg(), func(p *sim.Proc, d *Device) {
		zi, err := d.Zone(0)
		if err != nil || zi.State != ZoneEmpty || zi.WritePointer != 0 {
			t.Fatalf("initial zone: %+v err=%v", zi, err)
		}
		if err := d.WriteZone(p, 0, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		zi, _ = d.Zone(0)
		if zi.State != ZoneOpen || zi.WritePointer != 4096 {
			t.Fatalf("after write: %+v", zi)
		}
		// Fill to capacity -> FULL.
		if err := d.WriteZone(p, 0, make([]byte, int(d.ZoneSize())-4096)); err != nil {
			t.Fatal(err)
		}
		zi, _ = d.Zone(0)
		if zi.State != ZoneFull {
			t.Fatalf("zone should be FULL: %+v", zi)
		}
		if err := d.WriteZone(p, 0, []byte{1}); !errors.Is(err, ErrZoneState) {
			t.Fatalf("write to FULL zone: %v", err)
		}
		if err := d.ResetZone(p, 0); err != nil {
			t.Fatal(err)
		}
		zi, _ = d.Zone(0)
		if zi.State != ZoneEmpty || zi.WritePointer != 0 {
			t.Fatalf("after reset: %+v", zi)
		}
	})
}

func TestWriteExceedingZoneCapacity(t *testing.T) {
	run(t, testCfg(), func(p *sim.Proc, d *Device) {
		big := make([]byte, d.ZoneSize()+1)
		if err := d.WriteZone(p, 0, big); !errors.Is(err, ErrZoneFull) {
			t.Fatalf("err = %v", err)
		}
		// Partial fill then overflow.
		if err := d.WriteZone(p, 1, make([]byte, d.ZoneSize()-10)); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteZone(p, 1, make([]byte, 11)); !errors.Is(err, ErrZoneFull) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestReadBackWrittenData(t *testing.T) {
	run(t, testCfg(), func(p *sim.Proc, d *Device) {
		want := []byte("hello zoned namespace")
		if err := d.WriteZone(p, 3, want); err != nil {
			t.Fatal(err)
		}
		got, err := d.ReadZone(p, 3, 0, len(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %q, want %q", got, want)
		}
		// Offset read.
		got, err = d.ReadZone(p, 3, 6, 5)
		if err != nil || string(got) != "zoned" {
			t.Fatalf("offset read %q err=%v", got, err)
		}
	})
}

func TestReadBeyondWritePointer(t *testing.T) {
	run(t, testCfg(), func(p *sim.Proc, d *Device) {
		if err := d.WriteZone(p, 0, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadZone(p, 0, 50, 51); !errors.Is(err, ErrReadBeyondWP) {
			t.Fatalf("err = %v", err)
		}
		if _, err := d.ReadZone(p, 0, -1, 1); !errors.Is(err, ErrReadBeyondWP) {
			t.Fatalf("negative offset err = %v", err)
		}
	})
}

func TestZoneBounds(t *testing.T) {
	run(t, testCfg(), func(p *sim.Proc, d *Device) {
		if err := d.WriteZone(p, -1, nil); !errors.Is(err, ErrZoneBounds) {
			t.Fatal(err)
		}
		if err := d.WriteZone(p, d.NumZones(), nil); !errors.Is(err, ErrZoneBounds) {
			t.Fatal(err)
		}
		if _, err := d.ReadZone(p, 99, 0, 1); !errors.Is(err, ErrZoneBounds) {
			t.Fatal(err)
		}
		if err := d.ResetZone(p, 99); !errors.Is(err, ErrZoneBounds) {
			t.Fatal(err)
		}
		if _, err := d.Zone(-5); !errors.Is(err, ErrZoneBounds) {
			t.Fatal(err)
		}
	})
}

func TestResetEmptyZoneNoop(t *testing.T) {
	d, end := run(t, testCfg(), func(p *sim.Proc, d *Device) {
		if err := d.ResetZone(p, 0); err != nil {
			t.Fatal(err)
		}
	})
	if end != 0 {
		t.Fatalf("reset of empty zone consumed time %v", end)
	}
	_ = d
}

func TestOpenZonesCount(t *testing.T) {
	run(t, testCfg(), func(p *sim.Proc, d *Device) {
		for i := 0; i < 5; i++ {
			if err := d.WriteZone(p, i, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.OpenZones(); got != 5 {
			t.Fatalf("open zones %d", got)
		}
	})
}

func TestWriteTimingMatchesModel(t *testing.T) {
	cfg := testCfg()
	cfg.WriteLatency = 20 * time.Microsecond
	cfg.WriteBandwidth = 400e6
	n := 40000
	_, end := run(t, cfg, func(p *sim.Proc, d *Device) {
		if err := d.WriteZone(p, 0, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	})
	want := sim.Time(cfg.WriteLatency) + sim.Time(sim.TransferTime(int64(n), cfg.WriteBandwidth))
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestChannelContention(t *testing.T) {
	// Two writers on the same channel serialize; on different channels they
	// proceed in parallel.
	cfg := testCfg()
	env := sim.NewEnv()
	d := New(env, cfg, stats.NewIOStats())
	n := 40000 // 0.1ms at 400MB/s; fits the 64KiB test zones
	var sameEnd, diffEnd sim.Time
	env.Go("same-a", func(p *sim.Proc) { _ = d.WriteZone(p, 0, make([]byte, n)) })
	env.Go("same-b", func(p *sim.Proc) {
		_ = d.WriteZone(p, cfg.Channels, make([]byte, n)) // zone Channels -> channel 0 too
		sameEnd = p.Now()
	})
	env.Run()

	env2 := sim.NewEnv()
	d2 := New(env2, cfg, stats.NewIOStats())
	env2.Go("diff-a", func(p *sim.Proc) { _ = d2.WriteZone(p, 0, make([]byte, n)) })
	env2.Go("diff-b", func(p *sim.Proc) {
		_ = d2.WriteZone(p, 1, make([]byte, n)) // different channel
		diffEnd = p.Now()
	})
	env2.Run()

	if sameEnd <= diffEnd {
		t.Fatalf("same-channel writes (%v) should be slower than cross-channel (%v)", sameEnd, diffEnd)
	}
	if sameEnd < 2*diffEnd-sim.Time(time.Microsecond) {
		t.Fatalf("same-channel should roughly double: %v vs %v", sameEnd, diffEnd)
	}
}

func TestMediaStatsAccounting(t *testing.T) {
	d, _ := run(t, testCfg(), func(p *sim.Proc, d *Device) {
		_ = d.WriteZone(p, 0, make([]byte, 1000))
		_, _ = d.ReadZone(p, 0, 0, 500)
	})
	if d.Stats().MediaWrite.Value() != 1000 {
		t.Fatalf("media write %d", d.Stats().MediaWrite.Value())
	}
	if d.Stats().MediaRead.Value() != 500 {
		t.Fatalf("media read %d", d.Stats().MediaRead.Value())
	}
}

func TestConventionalReadWrite(t *testing.T) {
	cfg := testCfg()
	run(t, cfg, func(p *sim.Proc, d *Device) {
		blk := make([]byte, cfg.BlockSize)
		copy(blk, "block data")
		if err := d.WriteBlock(p, 7, blk); err != nil {
			t.Fatal(err)
		}
		got, err := d.ReadBlockRun(p, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[0], blk) {
			t.Fatal("block mismatch")
		}
		// Unwritten block reads as zeros.
		if got, err = d.ReadBlockRun(p, 8, 1); err != nil {
			t.Fatal(err)
		}
		for _, b := range got[0] {
			if b != 0 {
				t.Fatal("unwritten block not zero")
			}
		}
	})
}

func TestConventionalBoundsAndAlignment(t *testing.T) {
	cfg := testCfg()
	run(t, cfg, func(p *sim.Proc, d *Device) {
		blk := make([]byte, cfg.BlockSize)
		if err := d.WriteBlock(p, -1, blk); !errors.Is(err, ErrBlockBounds) {
			t.Fatal(err)
		}
		if err := d.WriteBlock(p, cfg.ConvBlocks, blk); !errors.Is(err, ErrBlockBounds) {
			t.Fatal(err)
		}
		if err := d.WriteBlock(p, 0, blk[:100]); !errors.Is(err, ErrUnalignedRequest) {
			t.Fatal(err)
		}
		if _, err := d.ReadBlockRun(p, -1, 1); !errors.Is(err, ErrBlockBounds) {
			t.Fatal(err)
		}
		if _, err := d.ReadBlockRun(p, cfg.ConvBlocks, 1); !errors.Is(err, ErrBlockBounds) {
			t.Fatal(err)
		}
		if err := d.TrimBlock(p, cfg.ConvBlocks+5); !errors.Is(err, ErrBlockBounds) {
			t.Fatal(err)
		}
	})
}

func TestTrimFreesBlocks(t *testing.T) {
	cfg := testCfg()
	run(t, cfg, func(p *sim.Proc, d *Device) {
		free0 := d.FreeConvBlocks()
		blk := make([]byte, cfg.BlockSize)
		if err := d.WriteBlock(p, 3, blk); err != nil {
			t.Fatal(err)
		}
		if d.FreeConvBlocks() != free0-1 {
			t.Fatal("write did not consume a block")
		}
		if err := d.TrimBlock(p, 3); err != nil {
			t.Fatal(err)
		}
		if d.FreeConvBlocks() != free0 {
			t.Fatal("trim did not free the block")
		}
		// Double trim is a no-op.
		if err := d.TrimBlock(p, 3); err != nil {
			t.Fatal(err)
		}
		if d.FreeConvBlocks() != free0 {
			t.Fatal("double trim changed accounting")
		}
	})
}

func TestGCKicksInUnderChurn(t *testing.T) {
	cfg := testCfg()
	cfg.ConvBlocks = 64
	cfg.OverprovisionPct = 0
	cfg.GCThreshold = 0.5
	d, _ := run(t, cfg, func(p *sim.Proc, d *Device) {
		blk := make([]byte, cfg.BlockSize)
		// Fill most of the namespace, then overwrite repeatedly.
		for i := int64(0); i < 60; i++ {
			if err := d.WriteBlock(p, i, blk); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < 5; r++ {
			for i := int64(0); i < 60; i++ {
				if err := d.WriteBlock(p, i, blk); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if d.GCRuns() == 0 {
		t.Fatal("expected GC activity under overwrite churn")
	}
	if d.GCCopiedBytes() != d.GCRuns()*4*int64(cfg.BlockSize) {
		t.Fatalf("gc accounting inconsistent: runs=%d copied=%d", d.GCRuns(), d.GCCopiedBytes())
	}
}

func TestCapacityExhaustion(t *testing.T) {
	cfg := testCfg()
	cfg.ConvBlocks = 8
	cfg.OverprovisionPct = 0
	run(t, cfg, func(p *sim.Proc, d *Device) {
		blk := make([]byte, cfg.BlockSize)
		for i := int64(0); i < 8; i++ {
			if err := d.WriteBlock(p, i, blk); err != nil {
				t.Fatal(err)
			}
		}
		// All physical blocks consumed; a new logical block must fail.
		// (LBA space is also 8, so reuse after trim instead.)
		if got := d.FreeConvBlocks(); got != 0 {
			t.Fatalf("free = %d", got)
		}
	})
}

func TestFaultInjectionZoneWrite(t *testing.T) {
	run(t, testCfg(), func(p *sim.Proc, d *Device) {
		d.InjectFault("zone-write", 2, 2) // second write to zone 2 fails
		if err := d.WriteZone(p, 2, []byte{1}); err != nil {
			t.Fatalf("first write should succeed: %v", err)
		}
		if err := d.WriteZone(p, 2, []byte{2}); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("second write: %v", err)
		}
		// Fault is consumed.
		if err := d.WriteZone(p, 2, []byte{3}); err != nil {
			t.Fatalf("third write: %v", err)
		}
	})
}

func TestFaultInjectionAnyRead(t *testing.T) {
	run(t, testCfg(), func(p *sim.Proc, d *Device) {
		_ = d.WriteZone(p, 0, []byte{1, 2, 3})
		d.InjectFault("zone-read", -1, 1)
		if _, err := d.ReadZone(p, 0, 0, 1); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("err = %v", err)
		}
		if _, err := d.ReadZone(p, 0, 0, 1); err != nil {
			t.Fatalf("fault should be consumed: %v", err)
		}
	})
}

func TestFaultInjectionBlock(t *testing.T) {
	cfg := testCfg()
	run(t, cfg, func(p *sim.Proc, d *Device) {
		blk := make([]byte, cfg.BlockSize)
		d.InjectFault("block-write", 5, 1)
		if err := d.WriteBlock(p, 5, blk); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("err = %v", err)
		}
		d.InjectFault("block-read", 5, 1)
		_ = d.WriteBlock(p, 5, blk)
		if _, err := d.ReadBlockRun(p, 5, 1); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestZoneStateString(t *testing.T) {
	if ZoneEmpty.String() != "EMPTY" || ZoneOpen.String() != "OPEN" || ZoneFull.String() != "FULL" {
		t.Fatal("state strings wrong")
	}
	if ZoneState(9).String() != "ZoneState(9)" {
		t.Fatal("unknown state string wrong")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := testCfg()
	cfg.Channels = 0
	New(sim.NewEnv(), cfg, stats.NewIOStats())
}

func TestSequentialWritesAccumulate(t *testing.T) {
	// Property: any sequence of writes fitting in a zone reads back intact.
	cfg := testCfg()
	f := func(chunks [][]byte) bool {
		var total int64
		for _, c := range chunks {
			total += int64(len(c))
		}
		if total > cfg.ZoneSize || total == 0 {
			return true
		}
		ok := true
		run(t, cfg, func(p *sim.Proc, d *Device) {
			var want []byte
			for _, c := range chunks {
				if err := d.WriteZone(p, 0, c); err != nil {
					ok = false
					return
				}
				want = append(want, c...)
			}
			got, err := d.ReadZone(p, 0, 0, len(want))
			if err != nil || !bytes.Equal(got, want) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
