package core

import (
	"errors"
	"testing"
	"time"

	"kvcsd/internal/sim"
)

// TestScanGranulesReleasedMidRead: a cluster released while a scan's read is
// in flight fails the scan with errReleased, which the scrubber treats as a
// race, instead of resolving granules against the emptied stripe table.
func TestScanGranulesReleasedMidRead(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		c := fx.eng.zm.NewCluster(ZoneTemp)
		if err := c.Append(p, make([]byte, 64*c.blockSz)); err != nil {
			t.Fatal(err)
		}
		if err := c.Seal(p); err != nil {
			t.Fatal(err)
		}
		releaser := fx.env.Go("release", func(rp *sim.Proc) {
			rp.Sleep(sim.Duration(time.Nanosecond)) // the scan's read is in flight by now
			if err := c.Release(rp); err != nil {
				t.Error(err)
			}
		})
		_, _, err := c.scanGranules(p, 0, 63)
		if !errors.Is(err, errReleased) || !raced(err) {
			t.Fatalf("scan of a cluster released mid-read: err %v, want errReleased", err)
		}
		p.Join(releaser)
	})
}

// TestMediaScrubRacesDelete: keyspace deletion landing at any point of a media
// scrub — during a scan's read or its checksum charge — skips the released
// clusters; the scrub neither panics nor fails.
func TestMediaScrubRacesDelete(t *testing.T) {
	for _, delay := range []time.Duration{time.Nanosecond, 5 * time.Microsecond, 20 * time.Microsecond,
		50 * time.Microsecond, 100 * time.Microsecond, 200 * time.Microsecond, 400 * time.Microsecond} {
		fx := newEngineFixture(smallEngineConfig())
		fx.run(t, func(p *sim.Proc) {
			ingestN(t, p, fx, "ks", 3000, func(i int) float32 { return float32(i) })
			compactAndWait(t, p, fx, "ks")
			deleter := fx.env.Go("delete", func(dp *sim.Proc) {
				dp.Sleep(sim.Duration(delay))
				if err := fx.eng.DeleteKeyspace(dp, "ks"); err != nil {
					t.Error(err)
				}
			})
			if _, err := fx.eng.MediaScrub(p); err != nil {
				t.Errorf("delete after %v: scrub failed: %v", delay, err)
			}
			p.Join(deleter)
		})
	}
}
