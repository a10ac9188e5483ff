package ssd

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

func TestWriteZoneSpansParallelAcrossChannels(t *testing.T) {
	cfg := testCfg()
	cfg.WriteLatency = 100 * time.Microsecond
	env := sim.NewEnv()
	d := New(env, cfg, stats.NewIOStats())
	var end sim.Time
	env.Go("w", func(p *sim.Proc) {
		// Four zones on four distinct channels: one burst, one latency.
		zones := []int{0, 1, 2, 3}
		data := [][]byte{{1}, {2}, {3}, {4}}
		if err := d.WriteZoneSpans(p, zones, data); err != nil {
			t.Error(err)
		}
		end = p.Now()
	})
	env.Run()
	// All four writes overlap: total ~ one write latency, not four.
	if end >= sim.Time(2*cfg.WriteLatency) {
		t.Fatalf("parallel spans took %v, want ~%v", end, cfg.WriteLatency)
	}
	for i := 0; i < 4; i++ {
		zi, _ := d.Zone(i)
		if zi.WritePointer != 1 {
			t.Fatalf("zone %d wp %d", i, zi.WritePointer)
		}
	}
}

func TestWriteZoneSpansSameChannelSerializes(t *testing.T) {
	cfg := testCfg() // 4 channels
	cfg.WriteLatency = 100 * time.Microsecond
	env := sim.NewEnv()
	d := New(env, cfg, stats.NewIOStats())
	var end sim.Time
	env.Go("w", func(p *sim.Proc) {
		// Zones 0 and 4 share channel 0.
		if err := d.WriteZoneSpans(p, []int{0, 4}, [][]byte{{1}, {2}}); err != nil {
			t.Error(err)
		}
		end = p.Now()
	})
	env.Run()
	if end < sim.Time(2*cfg.WriteLatency) {
		t.Fatalf("same-channel spans took %v, want >= %v", end, 2*cfg.WriteLatency)
	}
}

func TestWriteZoneSpansValidation(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, testCfg(), stats.NewIOStats())
	env.Go("w", func(p *sim.Proc) {
		if err := d.WriteZoneSpans(p, []int{0}, nil); err == nil {
			t.Error("length mismatch accepted")
		}
		if err := d.WriteZoneSpans(p, []int{-1}, [][]byte{{1}}); !errors.Is(err, ErrZoneBounds) {
			t.Errorf("bounds: %v", err)
		}
		big := make([]byte, d.ZoneSize()+1)
		if err := d.WriteZoneSpans(p, []int{0}, [][]byte{big}); !errors.Is(err, ErrZoneFull) {
			t.Errorf("overflow: %v", err)
		}
		// Write to a FULL zone rejected.
		fill := make([]byte, d.ZoneSize())
		if err := d.WriteZoneSpans(p, []int{1}, [][]byte{fill}); err != nil {
			t.Error(err)
		}
		if err := d.WriteZoneSpans(p, []int{1}, [][]byte{{1}}); !errors.Is(err, ErrZoneState) {
			t.Errorf("full zone: %v", err)
		}
	})
	env.Run()
}

func TestReadZoneSpansRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, testCfg(), stats.NewIOStats())
	env.Go("w", func(p *sim.Proc) {
		_ = d.WriteZone(p, 0, []byte("zone-zero-data"))
		_ = d.WriteZone(p, 1, []byte("zone-one-data!"))
		out, err := d.ReadZoneSpans(p, []ZoneSpan{
			{Zone: 0, Off: 0, N: 9},
			{Zone: 1, Off: 5, N: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if string(out[0]) != "zone-zero" || string(out[1]) != "one" {
			t.Fatalf("spans %q %q", out[0], out[1])
		}
	})
	env.Run()
}

func TestReadZoneSpansValidation(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, testCfg(), stats.NewIOStats())
	env.Go("w", func(p *sim.Proc) {
		_ = d.WriteZone(p, 0, []byte("short"))
		if _, err := d.ReadZoneSpans(p, []ZoneSpan{{Zone: 99, Off: 0, N: 1}}); !errors.Is(err, ErrZoneBounds) {
			t.Errorf("bounds: %v", err)
		}
		if _, err := d.ReadZoneSpans(p, []ZoneSpan{{Zone: 0, Off: 3, N: 10}}); !errors.Is(err, ErrReadBeyondWP) {
			t.Errorf("beyond wp: %v", err)
		}
		d.InjectFault("zone-read", 0, 1)
		if _, err := d.ReadZoneSpans(p, []ZoneSpan{{Zone: 0, Off: 0, N: 1}}); !errors.Is(err, ErrInjectedFault) {
			t.Errorf("fault: %v", err)
		}
	})
	env.Run()
}

func TestBlockRunRoundTrip(t *testing.T) {
	cfg := testCfg()
	env := sim.NewEnv()
	d := New(env, cfg, stats.NewIOStats())
	env.Go("w", func(p *sim.Proc) {
		blocks := make([][]byte, 8)
		for i := range blocks {
			blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, cfg.BlockSize)
		}
		if err := d.WriteBlockRun(p, 100, blocks); err != nil {
			t.Fatal(err)
		}
		got, err := d.ReadBlockRun(p, 100, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blocks {
			if !bytes.Equal(got[i], blocks[i]) {
				t.Fatalf("block %d mismatch", i)
			}
		}
		// Unwritten blocks read back zero.
		z, err := d.ReadBlockRun(p, 500, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range z[0] {
			if b != 0 {
				t.Fatal("unwritten block not zero")
			}
		}
	})
	env.Run()
}

func TestBlockRunParallelFasterThanSerial(t *testing.T) {
	cfg := testCfg()
	cfg.ReadLatency = 100 * time.Microsecond
	measure := func(run bool) sim.Time {
		env := sim.NewEnv()
		d := New(env, cfg, stats.NewIOStats())
		var end sim.Time
		env.Go("w", func(p *sim.Proc) {
			blocks := make([][]byte, 4)
			for i := range blocks {
				blocks[i] = make([]byte, cfg.BlockSize)
			}
			_ = d.WriteBlockRun(p, 0, blocks)
			t0 := p.Now()
			if run {
				_, _ = d.ReadBlockRun(p, 0, 4)
			} else {
				for i := int64(0); i < 4; i++ {
					_, _ = d.ReadBlockRun(p, i, 1)
				}
			}
			end = p.Now() - t0
		})
		env.Run()
		return end
	}
	serial := measure(false)
	burst := measure(true)
	if burst*2 >= serial {
		t.Fatalf("burst read (%v) should be much faster than serial (%v)", burst, serial)
	}
}

func TestBlockRunValidation(t *testing.T) {
	cfg := testCfg()
	env := sim.NewEnv()
	d := New(env, cfg, stats.NewIOStats())
	env.Go("w", func(p *sim.Proc) {
		if err := d.WriteBlockRun(p, cfg.ConvBlocks-1, [][]byte{make([]byte, cfg.BlockSize), make([]byte, cfg.BlockSize)}); !errors.Is(err, ErrBlockBounds) {
			t.Errorf("bounds: %v", err)
		}
		if err := d.WriteBlockRun(p, 0, [][]byte{{1, 2}}); !errors.Is(err, ErrUnalignedRequest) {
			t.Errorf("alignment: %v", err)
		}
		if _, err := d.ReadBlockRun(p, -1, 1); !errors.Is(err, ErrBlockBounds) {
			t.Errorf("read bounds: %v", err)
		}
		d.InjectFault("block-write", 7, 1)
		if err := d.WriteBlockRun(p, 7, [][]byte{make([]byte, cfg.BlockSize)}); !errors.Is(err, ErrInjectedFault) {
			t.Errorf("fault: %v", err)
		}
	})
	env.Run()
}

func TestConfigAccessors(t *testing.T) {
	cfg := testCfg()
	d := New(sim.NewEnv(), cfg, stats.NewIOStats())
	if d.Config().Channels != cfg.Channels {
		t.Fatal("Config() mismatch")
	}
	if d.ChannelCount() != cfg.Channels {
		t.Fatal("ChannelCount mismatch")
	}
}
