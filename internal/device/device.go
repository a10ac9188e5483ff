// Package device assembles a complete KV-CSD computational storage device:
// the ZNS SSD, the SoC (4 ARM cores running the core.Engine as a userspace
// SPDK-style driver), the NVMe queue pair facing the host, and the dispatch
// loops that execute incoming commands.
//
// Dispatch mirrors the prototype's concurrency: one dispatcher per SoC core
// pops commands from the submission queue and executes them on the engine.
// Long-running operations — compaction, secondary index construction — are
// acknowledged immediately and continue as device background jobs, which is
// what makes them invisible to foreground host threads (paper §V). A status
// command with the wait bit set is answered when its job ends, by a waiter
// proc of its own, so no dispatcher is held while it waits.
package device

import (
	"errors"
	"slices"
	"time"

	"kvcsd/internal/compaction"
	"kvcsd/internal/core"
	"kvcsd/internal/host"
	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/pcie"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

// dispatchersPerCore is the number of command dispatch loops per SoC core
// (SPDK-style async I/O: each core juggles several outstanding commands; CPU
// bursts still contend for the real cores).
const dispatchersPerCore = 4

// Options assembles a device.
type Options struct {
	SSD    ssd.Config
	SoC    host.Config
	Link   pcie.Config
	Engine core.Config
	// QueueDepth is the NVMe submission queue depth.
	QueueDepth int
	// Seed drives all device-internal randomness.
	Seed int64
	// Trace enables command/job span tracing (internal/obs). Off by default;
	// when off the hot path pays only nil checks.
	Trace bool
	// Metrics enables the metrics registry: stage histograms per opcode plus
	// device gauges (zones, DRAM, background jobs).
	Metrics bool
	// SharedRegistry, when non-nil (and Metrics is set), makes the device
	// publish into this registry instead of creating a private one — how an
	// array aggregates N devices into one dump. Per-device gauges are
	// namespaced under GaugePrefix; the device does not attach its IOStats
	// (the array attaches a merged block itself).
	SharedRegistry *obs.Registry
	// SharedTracer, when non-nil (and Trace is set), collects this device's
	// command spans into a fleet-wide tracer instead of a private one.
	SharedTracer *obs.Tracer
	// GaugePrefix namespaces this device's gauges in the registry (e.g.
	// "dev3/" yields "dev3/ssd/zones_open"). Empty means no prefix.
	GaugePrefix string
}

// DefaultOptions returns the Table-I-flavoured device.
func DefaultOptions() Options {
	return Options{
		SSD:        ssd.DefaultConfig(),
		SoC:        host.DefaultSoCConfig(),
		Link:       pcie.DefaultConfig(),
		Engine:     core.DefaultConfig(),
		QueueDepth: 256,
		Seed:       1,
	}
}

// Device is a running KV-CSD instance.
type Device struct {
	env    *sim.Env
	opts   Options
	ssd    *ssd.Device
	soc    *host.Host
	link   *pcie.Link
	engine *core.Engine
	queue  *nvme.QueuePair
	st     *stats.IOStats
	rng    *sim.RNG
	closed bool

	// Power-loss state (see restart.go).
	poweredOff bool
	restarts   int

	// parked holds the status waits not yet answered, in arrival order.
	parked []*statusWait

	// Observability (nil unless enabled in Options).
	tr       *obs.Tracer
	reg      *obs.Registry
	gaugeReg *obs.Registry // namespaced view engines publish gauges into
	samplers []*obs.Sampler
}

// New creates and starts a device in the simulation environment. Its
// dispatch loops run until Shutdown.
func New(env *sim.Env, opts Options, st *stats.IOStats) *Device {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	rng := sim.NewRNG(opts.Seed)
	dev := ssd.New(env, opts.SSD, st)
	dev.SetSeed(opts.Seed)
	soc := host.New(env, opts.SoC)
	d := &Device{
		env:    env,
		opts:   opts,
		ssd:    dev,
		soc:    soc,
		link:   pcie.New(env, opts.Link, st),
		engine: core.NewEngine(env, dev, soc, opts.Engine, rng.Fork(1), st),
		queue:  nvme.NewQueuePair(env, opts.QueueDepth),
		st:     st,
		rng:    rng,
	}
	// The collaborative planner reads the submission-queue backlog as its
	// foreground-pressure signal.
	d.engine.SetQueueProbe(func() int { return d.queue.Pending() })
	if opts.Trace || opts.Metrics {
		if opts.Metrics {
			if opts.SharedRegistry != nil {
				d.reg = opts.SharedRegistry
			} else {
				d.reg = obs.NewRegistry(env)
				d.reg.AttachIOStats(st)
			}
		}
		if opts.Trace {
			if opts.SharedTracer != nil {
				d.tr = opts.SharedTracer
			} else {
				d.tr = obs.NewTracer(env)
			}
			d.tr.SetRegistry(d.reg)
		}
		gaugeReg := d.reg
		if gaugeReg != nil {
			gaugeReg = gaugeReg.Namespace(opts.GaugePrefix)
		}
		d.gaugeReg = gaugeReg
		d.ssd.SetObs(d.tr, gaugeReg)
		d.engine.SetObs(d.tr, gaugeReg)
		d.link.SetTracer(d.tr)
	}
	for i := 0; i < opts.SoC.Cores*dispatchersPerCore; i++ {
		env.Go("kvcsd-dispatch", d.dispatchLoop)
	}
	if opts.Engine.ScrubInterval > 0 {
		env.Go("kvcsd-scrub", d.scrubLoop)
	}
	return d
}

// scrubLoop runs the background media scrubber every Engine.ScrubInterval of
// virtual time. Scrub reads go through the SSD channels in the background
// lane and its checksum work through the SoC cores, contending with
// foreground commands the way paper compaction does. The loop exits at
// Shutdown (it must, or the simulation's event queue never drains) and skips
// passes while the device is powered off.
func (d *Device) scrubLoop(p *sim.Proc) {
	p.SetLane(sim.Background)
	for {
		p.Sleep(sim.Duration(d.opts.Engine.ScrubInterval))
		if d.closed {
			return
		}
		if d.poweredOff {
			continue
		}
		rep, err := d.engine.MediaScrub(p)
		if err != nil || rep == nil {
			continue // scrub is advisory; errors surface via counters
		}
		if d.gaugeReg != nil {
			d.gaugeReg.Gauge("scrub/scanned_bytes").Add(float64(rep.ScannedBytes))
			d.gaugeReg.Gauge("scrub/corrupt_extents").Add(float64(len(rep.Corrupt)))
			d.gaugeReg.Gauge("scrub/quarantined_zones").Add(float64(rep.Quarantined))
		}
	}
}

// Queue returns the NVMe queue pair clients submit to.
func (d *Device) Queue() *nvme.QueuePair { return d.queue }

// Link returns the PCIe link clients transfer over.
func (d *Device) Link() *pcie.Link { return d.link }

// Engine exposes the device engine (tools, tests).
func (d *Device) Engine() *core.Engine { return d.engine }

// SSD exposes the underlying drive (tools, tests).
func (d *Device) SSD() *ssd.Device { return d.ssd }

// SoC exposes the device's ARM core pool (tools, tests).
func (d *Device) SoC() *host.Host { return d.soc }

// Stats returns the device's I/O statistics block.
func (d *Device) Stats() *stats.IOStats { return d.st }

// Tracer returns the device tracer, or nil when tracing is disabled.
func (d *Device) Tracer() *obs.Tracer { return d.tr }

// Registry returns the metrics registry, or nil when metrics are disabled.
func (d *Device) Registry() *obs.Registry { return d.reg }

// SamplerColumns are the per-interval rates and instantaneous levels a
// device sampler records. Rates are averaged over the sampling interval;
// levels are read at the sample instant.
var SamplerColumns = []string{
	"cmds_per_s",    // completed commands per second
	"app_write_Bps", // application bytes ingested per second
	"media_read_Bps",
	"media_write_Bps",
	"h2d_Bps",     // PCIe host->device bytes per second
	"d2h_Bps",     // PCIe device->host bytes per second
	"outstanding", // commands submitted but not completed
	"open_zones",
	"bg_jobs",        // running background jobs (compaction, index builds)
	"soc_busy_cores", // mean SoC cores in use over the interval, all work included
}

// SamplerUnits carries one unit per SamplerColumns entry; StartSampler
// attaches them so WriteCSV emits a "# units:" line under the header.
var SamplerUnits = []string{
	"1/s", "B/s", "B/s", "B/s", "B/s", "B/s", "cmds", "zones", "jobs", "cores",
}

// StartSampler begins recording a device time-series every interval of
// virtual time. The sampler is stopped automatically at Shutdown (or earlier
// via its own Stop). Rows follow SamplerColumns.
func (d *Device) StartSampler(interval time.Duration) *obs.Sampler {
	prev := d.st.Clone()
	var prevCmds int64
	prevHeld := d.soc.CPU().HeldTime()
	s := obs.StartSampler(d.env, interval, SamplerColumns, func(now sim.Time, dt time.Duration) []float64 {
		cur := d.st
		delta := cur.Delta(prev)
		cmds := d.queue.Completed() - prevCmds
		prev = cur.Clone()
		prevCmds = d.queue.Completed()
		// Core-time actually elapsed inside the interval: BusyTime would
		// count each Use in full at its start.
		held := d.soc.CPU().HeldTime()
		busyCores := 0.0
		if dt > 0 {
			busyCores = float64(held-prevHeld) / float64(dt)
		}
		prevHeld = held
		sec := dt.Seconds()
		rate := func(n int64) float64 {
			if sec <= 0 {
				return 0
			}
			return float64(n) / sec
		}
		return []float64{
			rate(cmds),
			rate(delta.AppWrite.Value()),
			rate(delta.MediaRead.Value()),
			rate(delta.MediaWrite.Value()),
			rate(delta.HostToDevice.Value()),
			rate(delta.DeviceToHost.Value()),
			float64(d.queue.Submitted() - d.queue.Completed()),
			float64(d.ssd.OpenZones()),
			float64(d.engine.BackgroundJobs()),
			busyCores,
		}
	})
	s.SetUnits(SamplerUnits)
	d.samplers = append(d.samplers, s)
	return s
}

// WaitBackgroundIdle blocks until device background jobs finish.
func (d *Device) WaitBackgroundIdle(p *sim.Proc) error {
	return d.engine.WaitBackgroundIdle(p)
}

// Shutdown closes the command queue: in-flight commands complete — a status
// command parked on the wait bit with StatusAborted — then the dispatch loops
// exit. Any running samplers record a final row and stop.
func (d *Device) Shutdown() {
	d.closed = true
	// Fail outstanding host-merge jobs and release parked poll dispatchers;
	// in-flight compactions fall back to device-side merging.
	d.engine.CloseAssist()
	d.answerParked(nvme.StatusAborted)
	d.queue.Close()
	for _, s := range d.samplers {
		s.Stop()
	}
}

// dispatchLoop pops commands and executes them on the engine.
func (d *Device) dispatchLoop(p *sim.Proc) {
	for {
		cmd, resp := d.queue.Pop(p)
		if cmd == nil {
			return // queue closed and drained
		}
		d.st.Commands.Add(1)
		// Everything from pickup to completion is "service" time; media spans
		// recorded below it claim their share out of it.
		svc := cmd.Span.Child("service", obs.StageService)
		if svc != nil {
			d.tr.Push(p, svc)
		}
		comp := d.execute(p, cmd)
		if svc != nil {
			d.tr.Pop(p)
		}
		if cmd.Wait && comp.Status == nvme.StatusOK && !comp.Done &&
			(cmd.Op == nvme.OpCompactStatus || cmd.Op == nvme.OpIndexStatus) {
			d.park(cmd, resp, svc)
			continue
		}
		svc.End()
		resp.Complete(&comp)
	}
}

// statusWait is a status command parked until the compaction or index build
// it asks about ends. Its service span stays open until it is answered.
type statusWait struct {
	resp     *nvme.Responder
	svc      *obs.Span
	waiter   *sim.Proc
	answered bool
}

// park hands a status command whose job is still running to a waiter proc,
// which blocks on the engine's own wait — the event the job fires when it
// ends, on success or failure — and then answers with exactly what the
// non-blocking status command returns at that instant. An index wait answers
// with the error the engine's wait returns: StatusNotFound at once for an
// index nobody asked to build, else the build's own failure.
func (d *Device) park(cmd *nvme.Command, resp *nvme.Responder, svc *obs.Span) {
	w := &statusWait{resp: resp, svc: svc}
	d.parked = append(d.parked, w)
	eng := d.engine
	w.waiter = d.env.Go("kvcsd-status-wait", func(p *sim.Proc) {
		var err error
		if !w.answered {
			if cmd.Op == nvme.OpCompactStatus {
				// WaitCompacted returns the engine's first background error,
				// which may be another job's; the status below reports this
				// compaction's own.
				_ = eng.WaitCompacted(p, cmd.Keyspace)
			} else {
				err = eng.WaitIndexBuilt(p, cmd.Keyspace, cmd.Index.Name)
			}
		}
		if w.answered {
			return // answered by a power cut or a shutdown
		}
		comp := d.execute(p, cmd)
		if err != nil {
			comp = statusOnly(err)
		}
		d.answer(w, &comp)
	})
}

// answer completes a parked status command and forgets it.
func (d *Device) answer(w *statusWait, comp *nvme.Completion) {
	w.answered = true
	if i := slices.Index(d.parked, w); i >= 0 {
		d.parked = slices.Delete(d.parked, i, i+1)
	}
	w.svc.End()
	w.resp.Complete(comp)
}

// answerParked completes every parked status command with status: a power
// cut or a shutdown ends the wait, whether or not its job ever ends. Each
// waiter proc is still blocked in the engine's wait — on an event that may
// now never fire, such as a halted engine's keyspace nobody compacts — so it
// is woken as well: its Proc.Wait returns when the proc is resumed, it finds
// its command answered and exits, and should the event fire later, the
// scheduler drops the wake-up of a finished proc.
func (d *Device) answerParked(status nvme.Status) {
	for len(d.parked) > 0 {
		w := d.parked[0]
		d.answer(w, &nvme.Completion{Status: status})
		d.env.Wake(w.waiter)
	}
}

// execute runs one command synchronously (background ops return fast and
// continue as engine jobs). The completion is returned by value: Complete
// copies it into the submission, so none is allocated per command.
func (d *Device) execute(p *sim.Proc, cmd *nvme.Command) nvme.Completion {
	if d.poweredOff {
		return nvme.Completion{Status: nvme.StatusPoweredOff}
	}
	eng := d.engine
	switch cmd.Op {
	case nvme.OpCreateKeyspace:
		return statusOnly(eng.CreateKeyspace(p, cmd.Keyspace))

	case nvme.OpOpenKeyspace:
		_, err := eng.Keyspace(cmd.Keyspace)
		return statusOnly(err)

	case nvme.OpDeleteKeyspace:
		return statusOnly(eng.DeleteKeyspace(p, cmd.Keyspace))

	case nvme.OpStore:
		return statusOnly(eng.Put(p, cmd.Keyspace, cmd.Key, cmd.Value))

	case nvme.OpDelete:
		return statusOnly(eng.Delete(p, cmd.Keyspace, cmd.Key))

	case nvme.OpBulkStore:
		return statusOnly(eng.BulkOps(p, cmd.Keyspace, cmd.Pairs))

	case nvme.OpSync:
		return statusOnly(eng.Sync(p, cmd.Keyspace))

	case nvme.OpCompact:
		return statusOnly(eng.Compact(p, cmd.Keyspace))

	case nvme.OpCompactWithIndexes:
		return statusOnly(eng.CompactWithIndexes(p, cmd.Keyspace, cmd.Indexes))

	case nvme.OpCompactStatus:
		ks, err := eng.Keyspace(cmd.Keyspace)
		if err != nil {
			return statusOnly(err)
		}
		done := ks.State() == core.StateCompacted
		// A dead compaction attempt (e.g. a rotted log extent failed the
		// sort's verified reads) must surface as a typed status, not leave
		// the waiter polling a keyspace that will never reach COMPACTED.
		if !done && ks.CompactErr() != nil {
			return statusOnly(ks.CompactErr())
		}
		pr := ks.CompactionProgress()
		return nvme.Completion{Status: nvme.StatusOK, Done: done, Progress: &pr}

	case nvme.OpHostMergePoll:
		// Long-poll: the dispatcher parks until a merge job arrives (there
		// are several dispatch loops, so foreground commands keep flowing).
		job, ok := eng.AssistQueue().Poll(p, cmd.ResultLimit)
		if !ok {
			return nvme.Completion{Status: nvme.StatusOK, Done: true}
		}
		return nvme.Completion{Status: nvme.StatusOK, Value: job.Payload, Count: int64(job.ID)}

	case nvme.OpHostMergePush:
		var herr error
		if len(cmd.Value) == 0 {
			herr = errors.New("device: host merge pushed no data")
		}
		// Unknown job IDs (stale pushes after a power cut rebuilt the
		// engine) are ignored by the queue.
		eng.AssistQueue().Complete(uint64(cmd.Extent.Granule), cmd.Value, herr)
		return nvme.Completion{Status: nvme.StatusOK}

	case nvme.OpCompactPolicy:
		if len(cmd.Value) > 0 {
			cc, err := compaction.DecodeConfig(cmd.Value)
			if err != nil {
				return nvme.Completion{Status: nvme.StatusInvalid}
			}
			eng.SetCompactionConfig(cc)
		}
		return nvme.Completion{Status: nvme.StatusOK, Value: compaction.EncodeConfig(eng.CompactionConfig())}

	case nvme.OpMigrateCold:
		moved, err := eng.MigrateCold(p)
		if err != nil {
			return statusOnly(err)
		}
		return nvme.Completion{Status: nvme.StatusOK, Count: int64(moved)}

	case nvme.OpBuildSecondaryIndex:
		return statusOnly(eng.BuildSecondaryIndex(p, cmd.Keyspace, cmd.Index))

	case nvme.OpIndexStatus:
		ks, err := eng.Keyspace(cmd.Keyspace)
		if err != nil {
			return statusOnly(err)
		}
		built, err := ks.IndexStatus(cmd.Index.Name)
		if err != nil {
			return statusOnly(err)
		}
		return nvme.Completion{Status: nvme.StatusOK, Done: built}

	case nvme.OpRetrieve:
		v, found, err := eng.Get(p, cmd.Keyspace, cmd.Key)
		if err != nil {
			return statusOnly(err)
		}
		if !found {
			return nvme.Completion{Status: nvme.StatusNotFound}
		}
		return nvme.Completion{Status: nvme.StatusOK, Value: v}

	case nvme.OpExist:
		ok, err := eng.Exist(p, cmd.Keyspace, cmd.Key)
		if err != nil {
			return statusOnly(err)
		}
		return nvme.Completion{Status: nvme.StatusOK, Exists: ok}

	case nvme.OpQueryPrimaryRange, nvme.OpQuerySecondaryRange, nvme.OpQuerySecondaryPoint:
		pairs := make([]nvme.KVPair, 0, resultCap(cmd.ResultLimit))
		emit := func(pr nvme.KVPair) bool {
			pairs = append(pairs, pr)
			return true
		}
		var err error
		switch cmd.Op {
		case nvme.OpQueryPrimaryRange:
			_, err = eng.RangePrimary(p, cmd.Keyspace, cmd.Low, cmd.High, cmd.ResultLimit, emit)
		case nvme.OpQuerySecondaryRange:
			_, err = eng.RangeSecondary(p, cmd.Keyspace, cmd.Index.Name, cmd.Low, cmd.High, cmd.ResultLimit, emit)
		default:
			_, err = eng.GetSecondary(p, cmd.Keyspace, cmd.Index.Name, cmd.Key, cmd.ResultLimit, emit)
		}
		if err != nil {
			return statusOnly(err)
		}
		return nvme.Completion{Status: nvme.StatusOK, Pairs: pairs}

	case nvme.OpScrubMedia:
		rep, err := eng.MediaScrub(p)
		if err != nil {
			return statusOnly(err)
		}
		return nvme.Completion{Status: nvme.StatusOK, Value: core.EncodeScrubReport(rep)}

	case nvme.OpReadExtent:
		data, err := eng.ReadExtent(p, extentRef(cmd))
		if err != nil {
			return statusOnly(err)
		}
		return nvme.Completion{Status: nvme.StatusOK, Value: data}

	case nvme.OpRepairExtent:
		return statusOnly(eng.RepairExtent(p, extentRef(cmd), cmd.Value))

	case nvme.OpCorruptMedia:
		flips, err := eng.CorruptExtent(extentRef(cmd), cmd.Extent.Bits)
		if err != nil {
			return statusOnly(err)
		}
		return nvme.Completion{Status: nvme.StatusOK, Count: int64(flips)}

	case nvme.OpKeyspaceInfo:
		info, err := eng.KeyspaceInfo(cmd.Keyspace)
		if err != nil {
			return statusOnly(err)
		}
		return nvme.Completion{Status: nvme.StatusOK, Info: info}

	default:
		return nvme.Completion{Status: nvme.StatusInvalid}
	}
}

// extentRef translates a command's extent address to the core form.
func extentRef(cmd *nvme.Command) core.ExtentRef {
	return core.ExtentRef{
		Keyspace: cmd.Keyspace,
		Kind:     core.ExtentKind(cmd.Extent.Kind),
		Index:    cmd.Extent.Index,
		Granule:  cmd.Extent.Granule,
	}
}

// resultCap presizes a query's result list: the command's result limit, at
// most 1024 pairs, and nothing for an unlimited query.
func resultCap(limit int) int { return min(max(limit, 0), 1024) }

// statusOnly maps an engine error to a completion status.
func statusOnly(err error) nvme.Completion {
	return nvme.Completion{Status: statusOf(err)}
}

func statusOf(err error) nvme.Status {
	switch {
	case err == nil:
		return nvme.StatusOK
	case errors.Is(err, core.ErrKeyspaceNotFound), errors.Is(err, core.ErrIndexNotFound):
		return nvme.StatusNotFound
	case errors.Is(err, core.ErrKeyspaceExists), errors.Is(err, core.ErrIndexExists):
		return nvme.StatusExists
	case errors.Is(err, core.ErrKeyspaceState), errors.Is(err, core.ErrDeleted):
		return nvme.StatusKeyspaceState
	case errors.Is(err, core.ErrNoZones), errors.Is(err, ssd.ErrDeviceCapacity):
		return nvme.StatusNoSpace
	case errors.Is(err, core.ErrKeyTooLarge), errors.Is(err, core.ErrValueTooLarge):
		return nvme.StatusInvalid
	case errors.Is(err, ssd.ErrPoweredOff):
		return nvme.StatusPoweredOff
	case errors.Is(err, core.ErrCorrupted):
		return nvme.StatusCorrupted
	case errors.Is(err, core.ErrExtentGone):
		return nvme.StatusNotFound
	case errors.Is(err, core.ErrIndexFailed):
		// Checked last: a build cut short by a power cut or a rotted extent
		// reports that cause; one the data itself refused (a byte range past
		// a value) is an invalid declaration.
		return nvme.StatusInvalid
	default:
		return nvme.StatusInternal
	}
}
