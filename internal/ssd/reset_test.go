package ssd

import (
	"errors"
	"testing"

	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// fillZones writes one 4 KiB block to each zone given.
func fillZones(t *testing.T, p *sim.Proc, d *Device, zones ...int) {
	t.Helper()
	for _, z := range zones {
		if err := d.WriteZone(p, z, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResetZonesBurst: a reset burst books every zone's reset at once, so it
// costs one write latency per zone on the busiest channel — zones on four
// channels reset in one latency, two zones sharing a channel in two — and an
// empty zone costs nothing. Every zone is EMPTY afterwards.
func TestResetZonesBurst(t *testing.T) {
	wl := testCfg().WriteLatency
	for _, tc := range []struct {
		name  string
		zones []int // zone z sits on channel z mod 4
		want  sim.Duration
	}{
		{"four channels", []int{0, 1, 2, 3}, wl},
		{"an empty zone besides", []int{0, 1, 2, 3, 5}, wl},
		{"two zones on one channel", []int{0, 4, 1}, 2 * wl},
		{"only empty zones", []int{5, 6}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, testCfg(), func(p *sim.Proc, d *Device) {
				fillZones(t, p, d, 0, 1, 2, 3, 4)
				t0 := p.Now()
				if err := d.ResetZones(p, tc.zones); err != nil {
					t.Fatal(err)
				}
				if took := sim.Duration(p.Now() - t0); took != tc.want {
					t.Errorf("the burst took %v, want %v", took, tc.want)
				}
				for _, z := range tc.zones {
					if zi, _ := d.Zone(z); zi.State != ZoneEmpty || zi.WritePointer != 0 {
						t.Errorf("zone %d after the burst: %+v", z, zi)
					}
				}
			})
		})
	}
	run(t, testCfg(), func(p *sim.Proc, d *Device) {
		if err := d.ResetZones(p, []int{0, 99}); !errors.Is(err, ErrZoneBounds) {
			t.Errorf("a burst naming zone 99 of 32: %v, want ErrZoneBounds", err)
		}
	})
}

// TestResetZonesBookInCallersLane: a burst is booked in its caller's lane. A
// background burst queued behind a write in service lets a foreground read
// issued after it go first, and ends that read's time later; a foreground
// burst keeps its place and the read goes behind it.
func TestResetZonesBookInCallersLane(t *testing.T) {
	const n = 4096
	for _, lane := range []sim.Lane{sim.Foreground, sim.Background} {
		env := sim.NewEnv()
		d := New(env, testCfg(), stats.NewIOStats())
		w, r, wl := d.writeCost(8, n), d.readCost(12, n), d.cfg.WriteLatency
		var took, readEnd sim.Duration
		env.Go("test", func(p *sim.Proc) {
			fillZones(t, p, d, 0, 1, 2, 3, 12) // zones 0, 8 and 12 share channel 0
			t0 := p.Now()
			env.Go("in-service", func(q *sim.Proc) {
				q.SetLane(sim.Background)
				_ = d.WriteZone(q, 8, make([]byte, n))
			})
			env.Go("read", func(q *sim.Proc) {
				q.Sleep(1) // the burst is booked by now
				if _, err := d.ReadZone(q, 12, 0, n); err != nil {
					t.Error(err)
				}
				readEnd = sim.Duration(q.Now() - t0)
			})
			p.Yield() // the write is in service
			p.SetLane(lane)
			if err := d.ResetZones(p, []int{0, 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			took = sim.Duration(p.Now() - t0)
		})
		env.Run()
		want, wantRead := w+wl, w+wl+r
		if lane == sim.Background {
			want, wantRead = w+r+wl, w+r
		}
		if took != want || readEnd != wantRead {
			t.Errorf("%v burst: ended %v and the read %v after issue, want %v and %v", lane, took, readEnd, want, wantRead)
		}
	}
}

// TestPowerCutDuringResetBurst: a cut while a burst is in flight — three of
// its resets ended, one still queued behind a read — rewinds none of its
// zones, not even the three whose resets ended, and the burst reports the
// cut.
func TestPowerCutDuringResetBurst(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, testCfg(), stats.NewIOStats())
	wl := d.cfg.WriteLatency
	var resetErr error
	env.Go("test", func(p *sim.Proc) {
		fillZones(t, p, d, 0, 1, 2, 3)
		t0 := p.Now()
		env.Go("read", func(q *sim.Proc) { _, _ = d.ReadZone(q, 3, 0, 4096) }) // channel 3 busy first
		env.Go("cut", func(q *sim.Proc) {
			q.SleepUntil(t0.Add(5 * wl / 2)) // past three resets' ends, before the last
			d.PowerCut(q)
		})
		p.Yield()
		resetErr = d.ResetZones(p, []int{0, 1, 2, 3})
	})
	env.Run()
	if !errors.Is(resetErr, ErrPoweredOff) {
		t.Fatalf("the burst returned %v across the cut, want ErrPoweredOff", resetErr)
	}
	for z := 0; z < 4; z++ {
		if zi, _ := d.Zone(z); zi.WritePointer != 4096 {
			t.Errorf("zone %d after the cut: %+v, want its 4096 bytes kept", z, zi)
		}
	}
}
