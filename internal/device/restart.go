// Power loss and restart. A power cut freezes the SSD media (tearing the
// in-flight zone append) and discards everything the device held in DRAM:
// ingest buffers, sort batches, the engine's entire in-memory state. Restart
// models the controller coming back up: a fresh engine is constructed over
// the surviving media, Manager.Recover rebuilds the keyspace table from the
// metadata zones, and the recovery scrub realigns the log clusters and rolls
// forward whatever flush frames survived past the last snapshot.
package device

import (
	"time"

	"kvcsd/internal/core"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
)

// PoweredOff reports whether the device is currently without power.
func (d *Device) PoweredOff() bool { return d.poweredOff }

// Restarts returns how many times the device has been power-cycled.
func (d *Device) Restarts() int { return d.restarts }

// PowerCut cuts power at the current instant. The SSD tears the in-flight
// zone append at a seeded offset and freezes; every command — in flight,
// parked on the status wait bit, or submitted later — completes with
// StatusPoweredOff; background jobs die at their next media operation.
// Idempotent while powered off.
func (d *Device) PowerCut(p *sim.Proc) ssd.PowerCutReport {
	if d.poweredOff {
		return ssd.PowerCutReport{}
	}
	d.poweredOff = true
	d.engine.Halt()
	// Fail host-merge jobs and release parked poll dispatchers: waiting
	// compactions fall back to device merging and then die against the
	// powered-off media; the host assist loop sees Done and exits.
	d.engine.CloseAssist()
	d.answerParked(nvme.StatusPoweredOff)
	return d.ssd.PowerCut(p)
}

// Restart power-cycles the device: it quiesces the dead controller (every
// in-flight command and background job fails against the powered-off media),
// powers the SSD back on, and brings up a fresh engine that Recovers from the
// metadata zones and Scrubs the media. On success the device serves commands
// again over exactly the durable state.
func (d *Device) Restart(p *sim.Proc) (*core.RecoveryReport, error) {
	if !d.poweredOff {
		d.PowerCut(p)
	}
	// Quiesce: old background jobs and in-flight commands must all have died
	// (against ErrPoweredOff) before power returns, or a stale job waking
	// later could write into zones the new engine owns.
	_ = d.engine.WaitBackgroundIdle(p)
	for d.queue.Submitted() > d.queue.Completed() {
		p.Sleep(10 * time.Microsecond)
	}

	start := p.Now()
	sp := d.tr.StartRoot(p, "restart", "job")
	if sp != nil {
		d.tr.Push(p, sp)
	}
	defer func() {
		if sp != nil {
			d.tr.Pop(p)
			sp.End()
		}
	}()

	d.ssd.PowerOn()
	d.restarts++
	eng := core.NewEngine(d.env, d.ssd, d.soc, d.opts.Engine, d.rng.Fork(int64(d.restarts)+1), d.st)
	eng.SetObs(d.tr, d.gaugeReg)
	eng.SetQueueProbe(func() int { return d.queue.Pending() })
	if err := eng.Recover(p); err != nil {
		d.ssd.PowerCut(p) // recovery failed: the device stays dark
		return nil, err
	}
	rep, err := eng.Scrub(p)
	if err != nil {
		d.ssd.PowerCut(p)
		return rep, err
	}
	d.engine = eng
	d.poweredOff = false
	if d.gaugeReg != nil {
		d.gaugeReg.Gauge("recovery/scrubbed_bytes").Set(float64(rep.ScrubbedBytes))
		d.gaugeReg.Gauge("recovery/torn_records").Set(float64(rep.TornRecords))
		d.gaugeReg.Gauge("recovery/lost_bytes").Set(float64(rep.LostBytes))
		d.gaugeReg.Gauge("recovery/wall_ns").Set(float64(p.Now() - start))
		d.gaugeReg.Gauge("recovery/restarts").Set(float64(d.restarts))
	}
	return rep, nil
}

// SetFaultProfile arms (or with nil disarms) the SSD's seeded probabilistic
// fault schedule.
func (d *Device) SetFaultProfile(fp *ssd.FaultProfile) { d.ssd.SetFaultProfile(fp) }
