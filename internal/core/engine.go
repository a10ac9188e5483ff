package core

import (
	"bytes"
	"errors"
	"fmt"

	"kvcsd/internal/compaction"
	"kvcsd/internal/host"
	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

// Errors from engine operations.
var (
	ErrKeyTooLarge   = errors.New("core: key too large")
	ErrValueTooLarge = errors.New("core: value too large")
	ErrDeleted       = errors.New("core: keyspace is being deleted")
)

// Engine is the on-SoC key-value store: keyspace manager + zone manager plus
// the ingest, compaction, indexing, and query machinery. It is what the
// device runtime dispatches NVMe commands into.
type Engine struct {
	cfg Config
	env *sim.Env
	soc *host.Host
	cpu [numSocPhases]host.Meter // the SoC, one meter per ledger phase
	zm  *ZoneManager
	mgr *Manager
	st  *stats.IOStats

	dram     *sim.Gauge // SoC DRAM in use (buffers + sort batches)
	idxCache *indexCache
	// scanPlans lends RangePrimary the buffers it plans its windows in.
	scanPlans [][]pidxEntry

	// Observability (optional).
	tr        *obs.Tracer
	gBgJobs   *sim.Gauge
	gPipeOcc  *sim.Gauge
	gHostJobs *sim.Gauge

	// Collaborative compaction state: the assist queue host merge loops poll,
	// the active compaction config (runtime-settable), and the total chunks
	// buffered in compaction pipelines right now (the device's drain signal).
	assist      *compaction.AssistQueue
	compactCfg  compaction.Config
	pipelineOcc int
	hostJobs    int
	// queueProbe, when set by the device runtime, reports the NVMe
	// submission-queue backlog — the planner's foreground-pressure signal.
	queueProbe func() int

	// Background job accounting.
	bgJobs int
	bgDone []*sim.Proc // waiters for background drain
	bgErr  error
	halted bool
	// writes is the write procs every pipeline of the engine lands its
	// appends on; each job is one of its users while it runs.
	writes writeProcs

	// sidxJoined counts the index builds that joined a compaction.
	sidxJoined stats.Counter

	// zoneStrikes counts corruption detections per zone across scrub passes;
	// at quarantineThreshold the zone is quarantined and replaced.
	zoneStrikes map[int]int
}

// NewEngine builds an engine over a ZNS SSD. soc models the device's ARM
// cores; st records device-side I/O statistics.
func NewEngine(env *sim.Env, dev *ssd.Device, soc *host.Host, cfg Config, rng *sim.RNG, st *stats.IOStats) *Engine {
	cfg = cfg.sanitize()
	zm := NewZoneManager(dev, cfg, rng)
	eng := &Engine{
		cfg:         cfg,
		env:         env,
		soc:         soc,
		cpu:         socMeters(soc),
		zm:          zm,
		mgr:         NewManager(env, zm, cfg),
		st:          st,
		dram:        sim.NewGauge(env),
		idxCache:    newIndexCache(cfg.IndexCacheBytes),
		zoneStrikes: make(map[int]int),
		assist:      compaction.NewAssistQueue(env),
		compactCfg:  cfg.Compaction,
	}
	eng.mgr.onRelease = func(id int64) { eng.idxCache.invalidateCluster(id) }
	return eng
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Manager exposes the keyspace manager (inspection, tools).
func (e *Engine) Manager() *Manager { return e.mgr }

// ZoneManager exposes the zone manager (inspection, tools).
func (e *Engine) ZoneManager() *ZoneManager { return e.zm }

// DRAMGauge returns the SoC DRAM usage gauge.
func (e *Engine) DRAMGauge() *sim.Gauge { return e.dram }

// SetObs attaches observability: background jobs become root "job" spans and
// the engine publishes its DRAM and background-job gauges, the SoC's busy
// core time and its ledger (engine/soc_ns/<phase>, which sum to
// engine/soc_busy_ns, each beside the time its charges waited for a core,
// engine/soc_wait_ns/<phase>), the metadata log's frame and byte counts, its
// index-cache hit/miss counters (record hits among the hits), the counts of
// blocks builds admitted into the cache and of builds that joined a
// compaction, and a gauge of the records the cache holds into reg. Either
// argument may be nil.
func (e *Engine) SetObs(tr *obs.Tracer, reg *obs.Registry) {
	e.tr = tr
	if reg == nil {
		return
	}
	reg.AddGauge("engine/dram", e.dram)
	reg.AddCounter("engine/soc_busy_ns", e.soc.BusyNs())
	for ph, m := range e.cpu {
		reg.AddCounter("engine/soc_ns/"+socPhaseNames[ph], m.Ns())
		reg.AddCounter("engine/soc_wait_ns/"+socPhaseNames[ph], m.WaitNs())
	}
	reg.AddCounter("engine/meta_frames", &e.mgr.metaFrames)
	reg.AddCounter("engine/meta_bytes", &e.mgr.metaBytes)
	reg.AddCounter("engine/sidx_joined", &e.sidxJoined)
	e.gBgJobs = reg.Gauge("engine/bg_jobs")
	e.gBgJobs.Set(float64(e.bgJobs))
	e.gPipeOcc = reg.Gauge("engine/pipeline_occupancy")
	e.gPipeOcc.Set(float64(e.pipelineOcc))
	e.gHostJobs = reg.Gauge("engine/host_merge_jobs")
	e.gHostJobs.Set(float64(e.hostJobs))
	if e.idxCache != nil {
		reg.AddCounter("engine/idxcache_hits", &e.idxCache.hits)
		reg.AddCounter("engine/idxcache_misses", &e.idxCache.misses)
		reg.AddCounter("engine/idxcache_record_hits", &e.idxCache.recordHits)
		reg.AddCounter("engine/idxcache_admitted", &e.idxCache.admitted)
		e.idxCache.gRecords = reg.Gauge("engine/idxcache_records")
		e.idxCache.publish()
	}
}

// --- Collaborative compaction ---------------------------------------------

// AssistQueue exposes the host-merge assist queue the device runtime polls
// on behalf of host assist loops.
func (e *Engine) AssistQueue() *compaction.AssistQueue { return e.assist }

// CloseAssist shuts the assist queue down (device halt or power cut):
// pending host-merge jobs fail and in-progress sorts fall back to merging on
// the SoC.
func (e *Engine) CloseAssist() { e.assist.Close() }

// SetQueueProbe installs the device runtime's NVMe backlog probe (the
// planner's foreground-pressure signal).
func (e *Engine) SetQueueProbe(fn func() int) { e.queueProbe = fn }

// SetCompactionConfig updates the compaction pipeline width at runtime. Zero
// width keeps the current one.
func (e *Engine) SetCompactionConfig(c compaction.Config) {
	if c.PipelineWidth <= 0 {
		c.PipelineWidth = e.compactCfg.PipelineWidth
	}
	e.compactCfg = c
}

// CompactionConfig returns the active compaction pipeline width.
func (e *Engine) CompactionConfig() compaction.Config {
	return e.compactCfg
}

// PipelineOccupancy returns the chunks currently buffered across compaction
// pipeline stages: the sum of the keyspaces' Progress.Occupancy, which is the
// fleet scheduler's "still draining" signal.
func (e *Engine) PipelineOccupancy() int { return e.pipelineOcc }

// noteOccupancy tracks pipeline-buffer occupancy per keyspace and globally.
func (e *Engine) noteOccupancy(ks *Keyspace, d int) {
	e.pipelineOcc += d
	if ks != nil {
		ks.pipelineOcc += d
		ks.progress.Occupancy = clampU16(ks.pipelineOcc)
	}
	if e.gPipeOcc != nil {
		e.gPipeOcc.Add(float64(d))
	}
}

func clampU16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > 0xffff {
		return 0xffff
	}
	return uint16(v)
}

// signals snapshots the live load signals the collaborative planner splits
// on: device-side backlog and channel utilization against host-side CPU
// pressure reported by the assist loop, and whether one is attached at all.
func (e *Engine) signals() compaction.Signals {
	sig := compaction.Signals{
		BgJobs:       e.bgJobs - 1, // the compaction asking is itself a bg job
		HostQueue:    e.assist.HostLoad(),
		HostAttached: e.assist.Attached(),
	}
	if sig.BgJobs < 0 {
		sig.BgJobs = 0
	}
	if e.queueProbe != nil {
		sig.QueueDepth = e.queueProbe()
	}
	sig.SoCQueue = e.soc.CPU().InUse() + e.soc.CPU().QueueLen()
	sig.ChannelUtil = e.zm.channelUtil()
	return sig
}

// submitAssist reads a run group off the media, frames it, and enqueues it
// for a host assist loop. Non-blocking past the reads.
func (e *Engine) submitAssist(p *sim.Proc, runs []*Cluster) (*compaction.Job, error) {
	encoded := make([][]byte, len(runs))
	for i, r := range runs {
		buf := make([]byte, r.Len())
		if err := r.ReadAt(p, buf, 0); err != nil {
			return nil, err
		}
		encoded[i] = buf
	}
	job, err := e.assist.Submit(compaction.EncodeRuns(encoded))
	if err != nil {
		return nil, err
	}
	e.hostJobs++
	if e.gHostJobs != nil {
		e.gHostJobs.Add(1)
	}
	return job, nil
}

// collectAssist waits for a host-merged run and hands its bytes to the final
// merge. The run stays in SoC DRAM — landing it in a scratch cluster and
// re-reading it would cost a full extra media pass. An error means the host
// went away; the sorter falls back.
func (e *Engine) collectAssist(p *sim.Proc, job *compaction.Job) ([]byte, error) {
	merged, err := e.assist.Wait(p, job)
	e.hostJobs--
	if e.gHostJobs != nil {
		e.gHostJobs.Add(-1)
	}
	if err != nil {
		return nil, err
	}
	e.cpu[phaseAssistLand].Copy(p, int64(len(merged))) // DMA landing into SoC DRAM
	return merged, nil
}

// Recover rebuilds engine state from the metadata zones after a restart.
func (e *Engine) Recover(p *sim.Proc) error { return e.mgr.Recover(p) }

// BackgroundErr returns any error hit by a background job.
func (e *Engine) BackgroundErr() error { return e.bgErr }

// --- Keyspace lifecycle ---------------------------------------------------

// CreateKeyspace registers a new keyspace.
func (e *Engine) CreateKeyspace(p *sim.Proc, name string) error {
	_, err := e.mgr.Create(p, name)
	return err
}

// Keyspace looks up a keyspace by name.
func (e *Engine) Keyspace(name string) (*Keyspace, error) {
	ks, ok := e.mgr.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrKeyspaceNotFound, name)
	}
	return ks, nil
}

// DeleteKeyspace removes a keyspace, freeing its zones. Deletion of a
// keyspace with a running compaction or index build is deferred until the
// job finishes (paper §IV).
func (e *Engine) DeleteKeyspace(p *sim.Proc, name string) error {
	ks, err := e.Keyspace(name)
	if err != nil {
		return err
	}
	if ks.pendingDelete {
		return ErrDeleted
	}
	ks.pendingDelete = true
	if ks.state == StateCompacting {
		p.Wait(ks.compactDone)
	}
	for _, si := range ks.secondary {
		p.Wait(si.done)
	}
	return e.mgr.Remove(p, name)
}

// --- Ingest ---------------------------------------------------------------

// Put inserts one pair into a keyspace.
func (e *Engine) Put(p *sim.Proc, name string, key, value []byte) error {
	ks, err := e.writableKeyspace(p, name)
	if err != nil {
		return err
	}
	e.st.Puts.Add(1)
	p.Acquire(ks.ingestLock)
	defer p.Release(ks.ingestLock)
	slab := make([]byte, 0, len(key)+len(value))
	return e.ingest(p, ks, &slab, key, value, false)
}

// Delete marks a key deleted: a tombstone lands in the KLOG and the key
// (with everything older under it) vanishes at compaction (paper §I:
// "bulk inserts, bulk deletes").
func (e *Engine) Delete(p *sim.Proc, name string, key []byte) error {
	ks, err := e.writableKeyspace(p, name)
	if err != nil {
		return err
	}
	e.st.Deletes.Add(1)
	p.Acquire(ks.ingestLock)
	defer p.Release(ks.ingestLock)
	slab := make([]byte, 0, len(key))
	return e.ingest(p, ks, &slab, key, nil, true)
}

// BulkOps applies a mixed batch of puts and deletes with one command (paper:
// bulk puts hide insertion latency; each 128 KiB message carries up to ~2570
// pairs); a pair with Tombstone set is a delete. The command's pairs are
// copied into one slab sized to hold them.
func (e *Engine) BulkOps(p *sim.Proc, name string, pairs []nvme.KVPair) error {
	ks, err := e.writableKeyspace(p, name)
	if err != nil {
		return err
	}
	e.st.BulkPuts.Add(1)
	p.Acquire(ks.ingestLock)
	defer p.Release(ks.ingestLock)
	n := 0
	for _, pr := range pairs {
		n += len(pr.Key)
		if !pr.Tombstone {
			n += len(pr.Value)
		}
	}
	slab := make([]byte, 0, n)
	for _, pr := range pairs {
		if pr.Tombstone {
			e.st.Deletes.Add(1)
		}
		if err := e.ingest(p, ks, &slab, pr.Key, pr.Value, pr.Tombstone); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) writableKeyspace(p *sim.Proc, name string) (*Keyspace, error) {
	ks, err := e.Keyspace(name)
	if err != nil {
		return nil, err
	}
	if ks.pendingDelete {
		return nil, ErrDeleted
	}
	switch ks.state {
	case StateEmpty:
		ks.state = StateWritable
		ks.klog = e.zm.NewCluster(ZoneKLOG)
		ks.vlog = e.zm.NewCluster(ZoneVLOG)
		if err := e.mgr.Persist(p); err != nil {
			return nil, err
		}
	case StateWritable:
		// A compaction that failed, or that a restart rolled back, sealed the
		// logs: nothing more can be appended to them, only compacted.
		if ks.klog.Sealed() {
			return nil, fmt.Errorf("%w: %s is %s with its logs sealed by a compaction that did not finish; compact it first", ErrKeyspaceState, name, ks.state)
		}
	default:
		return nil, fmt.Errorf("%w: %s is %s", ErrKeyspaceState, name, ks.state)
	}
	return ks, nil
}

// ingest stages one pair (or tombstone) in the keyspace's SoC DRAM buffer,
// flushing to the KLOG/VLOG clusters when the buffer fills (paper: 192 KiB).
// The buffer keeps views of the command's slab, which the caller sized to
// hold every pair of the command; ingest copies key and value into it. The
// key bounds are copied on their own, so a keyspace never pins a slab once
// its buffer has flushed.
func (e *Engine) ingest(p *sim.Proc, ks *Keyspace, slab *[]byte, key, value []byte, tomb bool) error {
	if len(key) > e.cfg.MaxKeyLen {
		return fmt.Errorf("%w: %d bytes", ErrKeyTooLarge, len(key))
	}
	if len(value) > e.cfg.MaxValueLen {
		return fmt.Errorf("%w: %d bytes", ErrValueTooLarge, len(value))
	}
	k := slabCopy(slab, key)
	var v []byte
	if !tomb {
		v = slabCopy(slab, value)
	}
	ks.buf = append(ks.buf, bufferedPair{key: k, value: v, tomb: tomb})
	ks.bufBytes += len(k) + len(v)
	ks.bytes += int64(len(k) + len(v))
	if !tomb {
		ks.count++
		e.st.AppWrite.Add(int64(len(k) + len(v)))
		if ks.minKey == nil || bytes.Compare(k, ks.minKey) < 0 {
			ks.minKey = append([]byte(nil), k...)
		}
		if ks.maxKey == nil || bytes.Compare(k, ks.maxKey) > 0 {
			ks.maxKey = append([]byte(nil), k...)
		}
	}
	if ks.bufBytes >= e.cfg.IngestBufferBytes {
		return e.flushBuffer(p, ks)
	}
	return nil
}

// slabCopy appends b to the slab and returns the copy, clipped to its length.
func slabCopy(slab *[]byte, b []byte) []byte {
	s := append(*slab, b...)
	*slab = s
	return s[len(s)-len(b) : len(s) : len(s)]
}

// flushBuffer drains the ingest buffer through the configured layout.
func (e *Engine) flushBuffer(p *sim.Proc, ks *Keyspace) error {
	if e.cfg.DisableKVSeparation {
		return e.flushBufferCombined(p, ks)
	}
	return e.flushBufferSeparated(p, ks)
}

// flushBufferSeparated drains the ingest buffer: values append to VLOG,
// keys (with value pointers) to KLOG (the paper's key-value separation).
func (e *Engine) flushBufferSeparated(p *sim.Proc, ks *Keyspace) error {
	if len(ks.buf) == 0 {
		return nil
	}
	// Per-pair engine CPU on the SoC cores, charged in one burst.
	e.cpu[phaseIngest].KVOp(p, int64(len(ks.buf)))
	e.dram.Add(float64(ks.bufBytes))

	// The values first, then the KLOG frame, through one scratch buffer.
	base := uint64(ks.vlog.Len())
	buf := e.zm.scratch.get(0)
	defer func() { e.zm.scratch.put(buf) }() // on a failed append too
	for _, pr := range ks.buf {
		buf = append(buf, pr.value...)
	}
	if err := ks.vlog.Append(p, buf); err != nil {
		return err
	}
	buf = append(buf[:0], logFrameReserve[:]...)
	codec := klogCodec{}
	off := base
	for _, pr := range ks.buf {
		if pr.tomb {
			// Tombstone: key-only record; vlogOff still orders recency.
			buf = codec.Encode(buf, klogEntry{key: pr.key, vlen: tombstoneVlen, vlogOff: off})
			continue
		}
		buf = codec.Encode(buf, klogEntry{key: pr.key, vlen: uint32(len(pr.value)), vlogOff: off})
		off += uint64(len(pr.value))
	}
	if err := ks.appendLogFrame(p, buf); err != nil {
		return err
	}
	e.dram.Add(-float64(ks.bufBytes))
	ks.resetBuffer()
	return nil
}

// takeIngest flushes what is left in a keyspace's ingest buffer when a
// compaction takes the keyspace over, and drops the buffer: the keyspace
// takes no more writes.
func (e *Engine) takeIngest(p *sim.Proc, ks *Keyspace) error {
	p.Acquire(ks.ingestLock)
	defer p.Release(ks.ingestLock)
	if err := e.flushBuffer(p, ks); err != nil {
		return err
	}
	ks.buf = nil
	return nil
}

// Sync flushes a keyspace's ingest buffer and persists metadata — the
// explicit "fsync" the paper's write-ahead-logging discussion mentions.
func (e *Engine) Sync(p *sim.Proc, name string) error {
	ks, err := e.Keyspace(name)
	if err != nil {
		return err
	}
	if ks.state == StateWritable {
		p.Acquire(ks.ingestLock)
		err := e.flushBuffer(p, ks)
		p.Release(ks.ingestLock)
		if err != nil {
			return err
		}
	}
	return e.mgr.Persist(p)
}

// --- Background jobs ------------------------------------------------------

// Halt simulates a device controller crash: scheduled background jobs fail
// before touching the media (their waiters see the error), and the engine
// must be replaced by a new one that Recovers from the metadata zones.
// Test/fault-injection hook.
func (e *Engine) Halt() { e.halted = true }

// errHalted fails a background job that starts after Halt.
var errHalted = errors.New("core: engine halted")

// spawnJob runs fn as a device background process on the SoC, in the
// background lane, so its media operations queue behind foreground ones. With
// tracing on, the job runs under a root "job:" span so its media operations
// get stage attribution like foreground commands.
func (e *Engine) spawnJob(name string, fn func(p *sim.Proc) error) {
	e.bgJobs++
	if e.gBgJobs != nil {
		e.gBgJobs.Add(1)
	}
	e.writes.join()
	e.env.Go(name, func(p *sim.Proc) {
		p.SetLane(sim.Background)
		sp := e.tr.StartRoot(p, "job:"+name, "job")
		if sp != nil {
			e.tr.Push(p, sp)
		}
		if err := fn(p); err != nil && e.bgErr == nil {
			e.bgErr = err
		}
		if sp != nil {
			e.tr.Pop(p)
			sp.End()
		}
		e.bgJobs--
		if e.gBgJobs != nil {
			e.gBgJobs.Add(-1)
		}
		e.writes.leave()
		for _, w := range e.bgDone {
			e.env.Wake(w)
		}
		e.bgDone = e.bgDone[:0]
	})
}

// WaitBackgroundIdle blocks until no device background jobs remain.
func (e *Engine) WaitBackgroundIdle(p *sim.Proc) error {
	for e.bgJobs > 0 {
		e.bgDone = append(e.bgDone, p)
		p.Block()
	}
	return e.bgErr
}

// BackgroundJobs returns the number of running background jobs.
func (e *Engine) BackgroundJobs() int { return e.bgJobs }

// Compact transitions a keyspace to COMPACTING and starts the device-side
// sort asynchronously; the call returns as soon as the job is scheduled (the
// paper's deferred compaction). Waiters use WaitCompacted. Until the job's
// value pass starts, index builds may join it (see consolidated.go); the job
// fails them if it fails and builds them once it has compacted.
func (e *Engine) Compact(p *sim.Proc, name string) error {
	ks, err := e.Keyspace(name)
	if err != nil {
		return err
	}
	if ks.pendingDelete {
		return ErrDeleted
	}
	if ks.state != StateWritable && ks.state != StateEmpty {
		return fmt.Errorf("%w: %s is %s", ErrKeyspaceState, name, ks.state)
	}
	if ks.state == StateEmpty {
		// Compacting an empty keyspace trivially succeeds.
		ks.state = StateCompacted
		ks.compactDone.Signal()
		return e.mgr.Persist(p)
	}
	if ks.compactDone.Fired() { // an attempt before this one failed
		ks.compactDone = sim.NewEvent(e.env)
	}
	ks.state = StateCompacting
	ks.compactStart = p.Now()
	ks.compactErr = nil
	if err := e.mgr.Persist(p); err != nil {
		return err
	}
	ks.joinable = true
	// The remaining ingest-buffer flush is part of the background job: the
	// command itself returns immediately (deferred compaction).
	e.spawnJob("compact-"+name, func(jp *sim.Proc) error {
		ks.progress = compaction.Progress{Stage: compaction.StageFlush}
		err := errHalted
		if !e.halted {
			err = e.takeIngest(jp, ks)
		}
		if err == nil {
			err = e.runCompaction(jp, ks)
		}
		// Every exit closes the window, so a compaction that failed before
		// its value pass fails the builds that joined it too.
		stages := ks.joined
		ks.joined, ks.joinable = nil, false
		// The done event fires even on error so waiters never deadlock; they
		// observe the failure through CompactErr and BackgroundErr.
		ks.progress.Stage = compaction.StageIdle
		if err != nil && !e.halted && ks.state == StateCompacting {
			// Roll back to WRITABLE as a restart does: the logs are intact,
			// and Compact may be called again.
			ks.state = StateWritable
			_ = e.mgr.Persist(jp)
		}
		ks.compactErr = err
		ks.compactDone.Signal()
		if err != nil {
			failStages(jp, ks, stages)
			return err
		}
		if len(stages) == 0 {
			return nil
		}
		return e.buildStaged(jp, stages, &ks.progress.BytesMoved)
	})
	return nil
}

// CompactWithIndexes validates every spec, compacts, and builds each index
// as BuildSecondaryIndex would — joined as far as consolidates allows, but a
// joined spec's failed extraction fails the compaction too. It returns at
// once like Compact; WaitCompacted and WaitIndexBuilt observe the phases.
func (e *Engine) CompactWithIndexes(p *sim.Proc, name string, specs []nvme.SecondaryIndexSpec) error {
	ks, err := e.Keyspace(name)
	if err != nil {
		return err
	}
	if err := ks.checkSpecs(specs); err != nil {
		return err
	}
	if err := e.Compact(p, name); err != nil {
		return err
	}
	for _, spec := range specs {
		if err := e.BuildSecondaryIndex(p, name, spec); err != nil {
			return err
		}
	}
	for _, st := range ks.joined { // no yield since Compact: each is one of specs
		st.declared = true
	}
	return nil
}

// Progress returns a snapshot of a keyspace's compaction progress.
func (e *Engine) Progress(name string) (compaction.Progress, error) {
	ks, err := e.Keyspace(name)
	if err != nil {
		return compaction.Progress{}, err
	}
	return ks.progress, nil
}

// Progresses lists compaction progress for every keyspace with activity
// (non-idle stage or a finished split), in name order.
func (e *Engine) Progresses() []compaction.KeyspaceProgress {
	var out []compaction.KeyspaceProgress
	for _, name := range e.mgr.Names() {
		ks, ok := e.mgr.Get(name)
		if !ok {
			continue
		}
		pr := ks.progress
		if pr.Stage == compaction.StageIdle && pr.BytesMoved == 0 {
			continue
		}
		out = append(out, compaction.KeyspaceProgress{Keyspace: name, Progress: pr})
	}
	return out
}

// MigrateCold sweeps COMPACTED keyspaces for sorted-value zones every
// granule of which stayed below Config.ColdHeatThreshold and copies them to
// the device's cold tier, at most Config.ColdMigrateBatch zones per call.
// The metadata snapshot referencing the fresh cold zones persists before the
// hot originals are released, so a power cut mid-migration leaves at worst
// orphan cold zones for the recovery sweep. Each swept keyspace ends with a
// heat decay: data must keep being read to stay on the hot tier.
func (e *Engine) MigrateCold(p *sim.Proc) (int, error) {
	if e.zm.ColdCapacity() == 0 {
		return 0, nil
	}
	budget := e.cfg.ColdMigrateBatch
	moved := 0
	for _, name := range e.mgr.Names() {
		ks, ok := e.mgr.Get(name)
		if !ok || ks.pendingDelete || ks.state != StateCompacted || ks.sorted == nil || ks.heat == nil {
			continue
		}
		prev := ks.progress.Stage
		ks.progress.Stage = compaction.StageMigrate
		var olds []int
		for _, stripe := range ks.sorted.stripes {
			for _, z := range stripe {
				if budget <= 0 || e.zm.ColdCapacity() == 0 {
					break
				}
				if e.zm.IsColdZone(z) {
					continue
				}
				hot := false
				for _, g := range ks.sorted.zoneGranules(z) {
					if ks.heat.Heat(int(g)) >= uint32(e.cfg.ColdHeatThreshold) {
						hot = true
						break
					}
				}
				if hot {
					continue
				}
				info, err := e.zm.dev.Zone(z)
				if err != nil {
					ks.progress.Stage = prev
					return moved, err
				}
				if _, err := ks.sorted.migrateZone(p, z); err != nil {
					ks.progress.Stage = prev
					return moved, err
				}
				ks.progress.BytesMoved += uint64(info.WritePointer)
				olds = append(olds, z)
				budget--
				moved++
			}
		}
		if len(olds) > 0 {
			// Persist before release: the crash-safety invariant shared with
			// compaction's log swap.
			if err := e.mgr.Persist(p); err != nil {
				ks.progress.Stage = prev
				return moved, err
			}
			if err := e.zm.release(p, olds); err != nil {
				ks.progress.Stage = prev
				return moved, err
			}
		}
		ks.heat.Decay()
		ks.progress.Stage = prev
		if budget <= 0 {
			break
		}
	}
	return moved, nil
}

// WaitCompacted blocks until the keyspace's compaction finishes and returns
// that compaction's own error: another job's failure, on this keyspace or on
// another, is not its.
func (e *Engine) WaitCompacted(p *sim.Proc, name string) error {
	ks, err := e.Keyspace(name)
	if err != nil {
		return err
	}
	p.Wait(ks.compactDone)
	return ks.compactErr
}

// BuildSecondaryIndex configures and asynchronously builds a secondary index
// over a value byte range (paper §V). The keyspace must be COMPACTED or
// COMPACTING. This is the one route decision: a build joins a compaction
// whose value pass has not started while consolidates allows one more; any
// other waits for the compaction to finish and reads the keyspace back. On a
// keyspace with no pairs there is nothing to read, and the index is built
// before the call returns.
func (e *Engine) BuildSecondaryIndex(p *sim.Proc, name string, spec nvme.SecondaryIndexSpec) error {
	ks, err := e.Keyspace(name)
	if err != nil {
		return err
	}
	if ks.pendingDelete {
		return ErrDeleted
	}
	if ks.state != StateCompacted && ks.state != StateCompacting {
		return fmt.Errorf("%w: %s is %s", ErrKeyspaceState, name, ks.state)
	}
	if err := ks.checkSpecs([]nvme.SecondaryIndexSpec{spec}); err != nil {
		return err
	}
	si := &secondaryIndex{spec: spec, done: sim.NewEvent(e.env)}
	ks.secondary[spec.Name] = si
	if ks.joinable && e.consolidates(len(ks.joined)+1) {
		ks.joined = append(ks.joined, &sidxStage{si: si, sorter: e.newSidxSorter(ks, spec)})
		e.sidxJoined.Add(1)
		return nil
	}
	if ks.state == StateCompacted && ks.count == 0 {
		return e.runIndexBuild(p, ks, si)
	}
	e.spawnJob("sidx-"+name+"-"+spec.Name, func(jp *sim.Proc) error {
		jp.Wait(ks.compactDone)
		return e.runIndexBuild(jp, ks, si)
	})
	return nil
}

// WaitIndexBuilt blocks until the named secondary index's construction ends
// and returns the error it failed with, nil once it is built.
func (e *Engine) WaitIndexBuilt(p *sim.Proc, name, index string) error {
	ks, err := e.Keyspace(name)
	if err != nil {
		return err
	}
	si, ok := ks.secondary[index]
	if !ok {
		return fmt.Errorf("%w: %s", ErrIndexNotFound, index)
	}
	p.Wait(si.done)
	return si.err
}
