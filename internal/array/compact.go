package array

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/compaction"
	"kvcsd/internal/sim"
)

// compactJob is one device-side compaction: one replica of one shard.
type compactJob struct {
	pt    *partition
	ri    int // replica index within pt
	specs []client.IndexSpec
	err   error
}

// Compact runs the fleet compaction scheduler over this keyspace: every
// replica of every shard is compacted, but admissions are grouped per device
// and throttled by the array's admission gate and stagger delay, so the
// fleet's background I/O ramps instead of all devices seeking at once.
func (k *Keyspace) Compact(p *sim.Proc) error {
	return k.a.compact(p, []*Keyspace{k}, nil)
}

// CompactWithIndexes compacts like Compact but declares secondary indexes
// upfront so each device extracts them during its compaction data pass.
// The specs are remembered for scatter-gather secondary queries.
func (k *Keyspace) CompactWithIndexes(p *sim.Proc, specs []client.IndexSpec) error {
	for _, s := range specs {
		k.rememberSpec(s)
	}
	return k.a.compact(p, []*Keyspace{k}, specs)
}

// CompactAll schedules compaction of every routed keyspace in one fleet
// pass — shards of different keyspaces on the same device share that
// device's admission slot.
func (a *Array) CompactAll(p *sim.Proc) error {
	kss := make([]*Keyspace, 0, len(a.ksOrder))
	for _, name := range a.ksOrder {
		kss = append(kss, a.keyspaces[name])
	}
	return a.compact(p, kss, nil)
}

// compact is the scheduler core. Jobs are grouped by device; one proc per
// device acquires the admission gate (FIFO, capacity
// MaxConcurrentCompactions), waits out the stagger interval, issues the
// device's compactions, and polls them to completion before releasing the
// slot. A shard succeeds when at least one replica compacted; replicas that
// failed retryably are marked unhealthy and left for reads to fail over
// past.
func (a *Array) compact(p *sim.Proc, kss []*Keyspace, specs []client.IndexSpec) error {
	// Group jobs by device, preserving (keyspace, partition, replica) order.
	perDev := make([][]*compactJob, a.opts.Devices)
	var shards []*partition
	jobsByPart := make(map[*partition][]*compactJob)
	for _, k := range kss {
		for _, pt := range k.parts {
			shards = append(shards, pt)
			for _, ri := range a.healthyReplicas(pt) {
				job := &compactJob{pt: pt, ri: ri, specs: specs}
				dev := pt.replicas[ri]
				perDev[dev] = append(perDev[dev], job)
				jobsByPart[pt] = append(jobsByPart[pt], job)
			}
		}
	}
	procs := make([]*sim.Proc, 0, a.opts.Devices)
	for dev := range perDev {
		jobs := perDev[dev]
		if len(jobs) == 0 {
			continue
		}
		procs = append(procs, a.env.Go(fmt.Sprintf("compact-d%d", dev), func(q *sim.Proc) {
			a.runDeviceCompactions(q, jobs)
		}))
	}
	p.Join(procs...)
	// Fold per shard: >= 1 replica compacted means the shard is compacted.
	for _, pt := range shards {
		jobs := jobsByPart[pt]
		errs := make([]error, len(jobs))
		devs := make([]int, len(jobs))
		for i, j := range jobs {
			errs[i] = j.err
			devs[i] = pt.replicas[j.ri]
		}
		folded := &partition{name: pt.name, replicas: devs}
		if err := a.writeOutcome(folded, errs); err != nil {
			return err
		}
	}
	return nil
}

// CompactionStagger is the least gap between successive compaction
// admissions, so the fleet's background I/O ramps instead of bursting.
const CompactionStagger = 100 * time.Microsecond

// runDeviceCompactions admits one device into the compaction window and
// drives its jobs: issue every compaction (the device acks immediately and
// compacts asynchronously), then poll each to completion.
func (a *Array) runDeviceCompactions(q *sim.Proc, jobs []*compactJob) {
	q.Acquire(a.gate)
	defer q.Release(a.gate)
	// Stagger successive admissions so background I/O ramps across the fleet.
	if a.admits > 0 {
		next := a.lastAdmit + sim.Time(CompactionStagger)
		if q.Now() < next {
			q.SleepUntil(next)
		}
	}
	a.admits++
	a.lastAdmit = q.Now()
	// Occupancy-aware stagger: beyond the fixed delay, hold this admission
	// until the previously admitted device's compaction pipelines have
	// drained their buffered chunks — admission by live backpressure.
	prev := a.lastJobs
	a.lastJobs = jobs
	a.drainPipelines(q, prev)
	if a.gCompactRun != nil {
		a.gCompactRun.Add(1)
		defer a.gCompactRun.Add(-1)
	}
	for _, j := range jobs {
		h := j.pt.handles[j.ri]
		if len(j.specs) > 0 {
			j.err = h.CompactWithIndexes(q, j.specs)
		} else {
			j.err = h.Compact(q)
		}
	}
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		j.err = j.pt.handles[j.ri].WaitCompacted(q)
	}
	// Lifetime-aware placement rides the compaction window: once this
	// device's compactions settle, run one cold-placement sweep on it.
	// Advisory — devices without a cold tier report zero moves.
	dev := jobs[0].pt.replicas[jobs[0].ri]
	if moved, err := a.members[dev].Client.MigrateCold(q); err == nil && a.gColdMoves != nil {
		a.gColdMoves.Add(float64(moved))
	}
}

// drainPipelines polls the previous admission's compaction progress until
// every pipeline's occupancy reaches zero (bounded, advisory: errors or a
// stuck pipeline stop the wait after the iteration cap).
func (a *Array) drainPipelines(q *sim.Proc, prev []*compactJob) {
	for iter := 0; iter < 256; iter++ {
		occ := 0
		for _, j := range prev {
			pr, _, err := j.pt.handles[j.ri].CompactionProgress(q)
			if err != nil {
				return
			}
			occ += int(pr.Occupancy)
		}
		if occ == 0 {
			return
		}
		q.Sleep(time.Millisecond)
	}
}

// CompactDone polls every shard once and reports whether compaction has
// completed on all healthy replicas — the non-blocking counterpart of
// WaitCompacted, used by status RPCs that must not park the caller.
func (k *Keyspace) CompactDone(p *sim.Proc) (bool, error) {
	all := true
	err := k.writeEach(p, func(q *sim.Proc, h *client.Keyspace) error {
		done, err := h.CompactDone(q)
		if err == nil && !done {
			all = false
		}
		return err
	})
	return all && err == nil, err
}

// WaitCompacted waits until every shard reports compaction complete on the
// healthy replicas (used after an async Compact issued elsewhere).
func (k *Keyspace) WaitCompacted(p *sim.Proc) error {
	return k.writeEach(p, func(q *sim.Proc, h *client.Keyspace) error { return h.WaitCompacted(q) })
}

// Compactions folds the fleet's per-shard compaction progress into one row
// per logical keyspace (shards are named "<keyspace>#pN" on their devices),
// sorted by name: counters sum across shards and replicas, and the stage shown
// is the furthest-behind shard's — any active stage outranks idle, and among
// active stages the earliest pipeline stage wins. Powered-off devices are
// skipped.
func (a *Array) Compactions() []compaction.KeyspaceProgress {
	byKs := make(map[string]*compaction.Progress)
	var names []string
	for _, m := range a.members {
		if m.Dev.PoweredOff() {
			continue
		}
		for _, row := range m.Dev.Engine().Progresses() {
			name, _, _ := strings.Cut(row.Keyspace, "#")
			agg, ok := byKs[name]
			if !ok {
				cp := row.Progress
				byKs[name] = &cp
				names = append(names, name)
				continue
			}
			agg.GranulesDone += row.Progress.GranulesDone
			agg.GranulesTotal += row.Progress.GranulesTotal
			agg.BytesMoved += row.Progress.BytesMoved
			agg.HostRuns += row.Progress.HostRuns
			agg.DeviceRuns += row.Progress.DeviceRuns
			agg.Occupancy += row.Progress.Occupancy
			if stageBehind(row.Progress.Stage, agg.Stage) {
				agg.Stage = row.Progress.Stage
			}
		}
	}
	sort.Strings(names)
	out := make([]compaction.KeyspaceProgress, 0, len(names))
	for _, name := range names {
		out = append(out, compaction.KeyspaceProgress{Keyspace: name, Progress: *byKs[name]})
	}
	return out
}

// stageBehind reports whether stage a is further behind than b.
func stageBehind(a, b compaction.Stage) bool {
	if a == compaction.StageIdle {
		return false
	}
	if b == compaction.StageIdle {
		return true
	}
	return a < b
}
