package core

import (
	"errors"
	"testing"

	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
)

// TestReleaseResetsClusterAsOneBurst: releasing a cluster resets its zones as
// one burst, so it costs one write latency per zone on its busiest channel —
// one for a single four-zone stripe, two for three stripes over the eight
// channels — not one per zone, and every zone is back in the free pool.
func TestReleaseResetsClusterAsOneBurst(t *testing.T) {
	for _, tc := range []struct {
		name     string
		granules int
		want     int // write latencies
	}{
		{"one stripe", 4, 1},
		{"three stripes", 2*4*16 + 4, 2}, // 16 granules fill a 64 KiB zone
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newClusterFixture(DefaultConfig())
			fx.run(t, func(p *sim.Proc) {
				c := fx.zm.NewCluster(ZoneTemp)
				if err := c.Append(p, make([]byte, tc.granules*fx.zm.cfg.BlockBytes)); err != nil {
					t.Fatal(err)
				}
				zones := c.Zones()
				perChan := map[int]int{}
				most := 0
				for _, z := range zones {
					perChan[fx.zm.chanOf(z)]++
					most = max(most, perChan[fx.zm.chanOf(z)])
				}
				if most != tc.want {
					t.Fatalf("%d zones put up to %d on one channel, want %d", len(zones), most, tc.want)
				}
				free0, t0 := fx.zm.FreeZones(), p.Now()
				if err := c.Release(p); err != nil {
					t.Fatal(err)
				}
				if took, want := sim.Duration(p.Now()-t0), sim.Duration(tc.want)*fx.dev.Config().WriteLatency; took != want {
					t.Errorf("releasing %d zones took %v, want %v", len(zones), took, want)
				}
				if got := fx.zm.FreeZones() - free0; got != len(zones) {
					t.Errorf("%d zones back in the pool, want %d", got, len(zones))
				}
				checkAccounting(t, fx.zm)
			})
		})
	}
}

// TestPowerCutDuringReleaseLeavesOrphans: a cut while a cluster's reset burst
// is in flight — three resets ended, the fourth queued behind a read — frees
// none of its zones and rewinds none, so the recovery sweep finds all four as
// orphans. Resetting zone by zone would have freed the first two by then.
func TestPowerCutDuringReleaseLeavesOrphans(t *testing.T) {
	fx := newClusterFixture(DefaultConfig())
	wl := fx.dev.Config().WriteLatency
	fx.run(t, func(p *sim.Proc) {
		c := fx.zm.NewCluster(ZoneTemp)
		bs := fx.zm.cfg.BlockBytes
		if err := c.Append(p, make([]byte, 4*bs)); err != nil {
			t.Fatal(err)
		}
		zones := c.Zones()
		free0, t0 := fx.zm.FreeZones(), p.Now()
		fx.env.Go("read", func(q *sim.Proc) { _, _ = fx.dev.ReadZone(q, zones[3], 0, bs) })
		fx.env.Go("cut", func(q *sim.Proc) {
			q.SleepUntil(t0.Add(5 * wl / 2))
			fx.dev.PowerCut(q)
		})
		p.Yield() // the read is booked first
		if err := c.Release(p); !errors.Is(err, ssd.ErrPoweredOff) {
			t.Fatalf("release across the cut returned %v, want ErrPoweredOff", err)
		}
		if got := fx.zm.FreeZones(); got != free0 {
			t.Errorf("%d zones freed across the cut, want none", got-free0)
		}
		fx.dev.PowerOn()
		restarted := NewZoneManager(fx.dev, fx.zm.cfg, sim.NewRNG(7))
		orphans, lost, err := restarted.sweepOrphans(p)
		if err != nil {
			t.Fatal(err)
		}
		if orphans != len(zones) || lost != int64(len(zones)*bs) {
			t.Errorf("the sweep found %d orphans holding %d bytes, want the cluster's %d zones and %d bytes", orphans, lost, len(zones), len(zones)*bs)
		}
	})
}

// BenchmarkReleaseCluster: a background job releases a four-zone stripe while
// a foreground read is queued on each of its zones' channels. virt_us/op is
// the virtual time the release takes: the reads go first, then all four
// resets at once, one write latency on each channel.
func BenchmarkReleaseCluster(b *testing.B) {
	b.ReportAllocs()
	fx := newClusterFixture(DefaultConfig())
	var virt sim.Duration
	fx.env.Go("bench", func(p *sim.Proc) {
		p.SetLane(sim.Background)
		bs := fx.zm.cfg.BlockBytes
		data := make([]byte, 4*bs)
		for i := 0; i < b.N; i++ {
			c := fx.zm.NewCluster(ZoneTemp)
			if err := c.Append(p, data); err != nil {
				b.Fatal(err)
			}
			for _, z := range c.Zones() {
				fx.env.Go("read", func(q *sim.Proc) {
					q.SetLane(sim.Foreground)
					if _, err := fx.dev.ReadZone(q, z, 0, bs); err != nil {
						b.Error(err)
					}
				})
			}
			p.Yield() // the reads are booked first
			t0 := p.Now()
			if err := c.Release(p); err != nil {
				b.Fatal(err)
			}
			virt += sim.Duration(p.Now() - t0)
		}
	})
	fx.env.Run()
	b.ReportMetric(float64(virt.Microseconds())/float64(b.N), "virt_us/op")
}
