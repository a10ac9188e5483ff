package ssd

import (
	"errors"
	"testing"

	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// TestPowerCutTearsPushedBackAppend: a background append queued on a channel
// and pushed back by a foreground read is still in flight past the end it was
// first booked to, so a cut between that end and the moved one tears it.
func TestPowerCutTearsPushedBackAppend(t *testing.T) {
	const n = 4096
	env := sim.NewEnv()
	d := New(env, testCfg(), stats.NewIOStats())
	w, r := d.writeCost(0, n), d.readCost(8, n) // zones 0, 4 and 8 share channel 0
	var (
		appendErr error
		rep       PowerCutReport
	)
	env.Go("test", func(p *sim.Proc) {
		if err := d.WriteZone(p, 8, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		t0 := p.Now()
		booked := t0.Add(2 * w) // the append's end behind the one in service
		env.Go("in-service", func(q *sim.Proc) {
			q.SetLane(sim.Background)
			_ = d.WriteZone(q, 4, make([]byte, n))
		})
		env.Go("append", func(q *sim.Proc) {
			q.SetLane(sim.Background)
			appendErr = d.WriteZone(q, 0, make([]byte, n))
		})
		env.Go("cut", func(q *sim.Proc) {
			q.SleepUntil(booked.Add(r / 2)) // past the first end, before the moved one
			rep = d.PowerCut(q)
		})
		p.Sleep(1) // the append is queued: the read goes ahead of it
		if _, err := d.ReadZone(p, 8, 0, n); !errors.Is(err, ErrPoweredOff) {
			t.Errorf("read across the cut: %v", err)
		}
	})
	env.Run()
	z, _ := d.Zone(0)
	if rep.TornZones != 1 || z.WritePointer >= n || !errors.Is(appendErr, ErrPoweredOff) {
		t.Fatalf("cut: %+v, zone 0 keeps %d of %d bytes, append returned %v; want the pushed-back append torn", rep, z.WritePointer, n, appendErr)
	}
}
