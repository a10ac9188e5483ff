// Power-loss and probabilistic fault modelling.
//
// A power cut freezes the media: every append whose channel operation has not
// completed by the instant of the cut is torn — the earliest in-flight append
// per zone keeps a seeded prefix of its bytes and everything queued behind it
// on the channel is lost whole. The device then refuses all operations with
// ErrPoweredOff until PowerOn, mirroring a drive dropping off the bus: the
// controller still completes commands (with an error) but touches no media.
//
// Beyond the count-based InjectFault schedule, a FaultProfile arms seeded
// probabilistic faults: each matching operation independently fails with
// ErrInjectedFault or pays extra latency, with per-kind probabilities. Both
// mechanisms are deterministic given the seed and the operation sequence.
package ssd

import (
	"time"

	"kvcsd/internal/sim"
)

// inflightAppend records one zone append whose media operation may still be
// in flight: the zone, where it started, its length, and its channel
// booking, whose end — as moved by foreground work going ahead of it —
// decides whether a cut tears it. Appends are recorded in issue order, so per
// zone the first incomplete entry is the tear point of a power cut.
type inflightAppend struct {
	zone    int
	startWP int64
	n       int64
	book    sim.Booking
}

// noteAppend records an issued zone append and prunes completed entries.
func (d *Device) noteAppend(zone int, startWP, n int64, book sim.Booking) {
	now := d.env.Now()
	keep := d.inflight[:0]
	for _, a := range d.inflight {
		if a.book.End() > now {
			keep = append(keep, a)
		}
	}
	d.inflight = append(keep, inflightAppend{zone: zone, startWP: startWP, n: n, book: book})
}

// SetSeed reseeds the device's internal randomness (torn-append offsets).
// Call before the first PowerCut; the default seed is 1.
func (d *Device) SetSeed(seed int64) {
	d.rng = sim.NewRNG(seed).Fork(0x535344) // decorrelate from engine streams
}

// PoweredOff reports whether the device is in the powered-off state.
func (d *Device) PoweredOff() bool { return d.poweredOff }

// PowerCutReport summarizes what a power cut destroyed.
type PowerCutReport struct {
	// InFlightAppends is how many zone appends were still on a channel at
	// the instant of the cut.
	InFlightAppends int
	// TornZones is how many zones were truncated at a torn append.
	TornZones int
	// TornBytes is the total bytes discarded from torn and queued appends.
	TornBytes int64
}

// PowerCut cuts power at the current instant: the earliest in-flight append
// of each zone is torn at a seeded byte offset (leaving a partial record on
// media), appends queued behind it are lost whole, and the device transitions
// to the powered-off state where every operation fails with ErrPoweredOff.
// Durable zone contents — everything whose channel operation had completed —
// survive untouched. Idempotent while powered off.
func (d *Device) PowerCut(p *sim.Proc) PowerCutReport {
	var rep PowerCutReport
	if d.poweredOff {
		return rep
	}
	now := d.env.Now()
	d.poweredOff = true
	torn := make(map[int]bool)
	for _, a := range d.inflight {
		if a.book.End() <= now {
			continue
		}
		rep.InFlightAppends++
		if torn[a.zone] {
			continue // already truncated below this append's start
		}
		torn[a.zone] = true
		keep := int64(0)
		if a.n > 0 {
			keep = int64(d.rng.Intn(int(a.n)))
		}
		rep.TornBytes += d.truncateZone(a.zone, a.startWP+keep)
		rep.TornZones++
	}
	d.inflight = d.inflight[:0]
	return rep
}

// PowerOn restores the device: media ops work again over whatever the cut
// left on media. Recovery (CRC scrub, write-pointer repair) is the layer
// above's job — see device.Restart.
func (d *Device) PowerOn() {
	d.poweredOff = false
	d.inflight = d.inflight[:0]
}

// truncateZone rewinds a zone's write pointer to newWP, discarding the bytes
// above it, and returns how many bytes were lost. Zone state follows the
// pointer: empty at zero, reopened if it had filled.
func (d *Device) truncateZone(zi int, newWP int64) int64 {
	z := &d.zones[zi]
	lost := z.wp - newWP
	if lost <= 0 {
		return 0
	}
	prev := z.state
	z.wp = newWP
	z.data = z.data[:newWP]
	switch {
	case newWP == 0:
		z.state = ZoneEmpty
		z.data = nil
	case prev == ZoneFull:
		z.state = ZoneOpen
	}
	d.noteZoneTransition(prev, z.state, -lost)
	d.st.MediaTorn.Add(lost) // counted as written at issue, destroyed by the cut
	return lost
}

// FaultProfile arms seeded probabilistic fault injection. Each matching
// operation independently draws against the configured per-kind rates:
// an error draw fails the operation with ErrInjectedFault, a latency draw
// adds ExtraLatency to its channel time. Kinds match InjectFault:
// "zone-write", "zone-read", "block-write", "block-read".
type FaultProfile struct {
	// Seed drives the fault draws; the schedule is deterministic given the
	// seed and the operation sequence.
	Seed int64
	// ErrorRate maps a kind to its probability of ErrInjectedFault.
	ErrorRate map[string]float64
	// LatencyRate maps a kind to its probability of a latency fault.
	LatencyRate map[string]float64
	// ExtraLatency is added when a latency fault fires (default 1ms).
	ExtraLatency time.Duration
	// RotRate maps a read kind ("zone-read") to the probability that the read
	// surfaces latent bit-rot: seeded bits in the range being read flip in
	// place before the read returns, silently. See rot.go.
	RotRate map[string]float64
	// RotBits is how many bits each rot event flips (default DefaultRotBits).
	RotBits int
}

// SetFaultProfile installs (or, with nil, removes) a probabilistic fault
// schedule. Count-based InjectFault faults keep working alongside it and are
// checked first.
func (d *Device) SetFaultProfile(fp *FaultProfile) {
	if fp == nil {
		d.fprof = nil
		d.frng = nil
		return
	}
	cp := *fp
	if cp.ExtraLatency <= 0 {
		cp.ExtraLatency = time.Millisecond
	}
	d.fprof = &cp
	d.frng = sim.NewRNG(cp.Seed)
}

// profileFault draws the error schedule for one operation of the given kind.
func (d *Device) profileFault(kind string) error {
	if d.fprof == nil {
		return nil
	}
	if rate := d.fprof.ErrorRate[kind]; rate > 0 && d.frng.Float64() < rate {
		return ErrInjectedFault
	}
	return nil
}

// faultLatency draws the latency schedule for one operation of the given
// kind, returning the extra channel time it must pay.
func (d *Device) faultLatency(kind string) time.Duration {
	if d.fprof == nil {
		return 0
	}
	if rate := d.fprof.LatencyRate[kind]; rate > 0 && d.frng.Float64() < rate {
		return d.fprof.ExtraLatency
	}
	return 0
}
