package array

import (
	"fmt"

	"kvcsd/internal/core"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// Read-repair (DESIGN.md §11). When a replica answers a read with
// StatusCorrupted the router fails the read over to a healthy peer (the
// degraded-read path — no health strike, the device itself is fine) and
// schedules an asynchronous repair of the rotted replica: scrub it to
// enumerate the bad extents, fetch each extent's clean bytes from a replica
// that still verifies, and rewrite them in place. Compaction is
// deterministic, so the logical bytes at an (keyspace, kind, index, granule)
// address are identical on every replica — the repair payload is re-verified
// against the stored checksum device-side before programming.

// scheduleRepair spawns an asynchronous scrub-and-repair pass over one
// device, deduplicating concurrent triggers (every failed-over read of a
// rotted replica would otherwise queue its own pass).
func (a *Array) scheduleRepair(dev int) {
	if a.repairing[dev] {
		return
	}
	a.repairing[dev] = true
	proc := a.env.Go(fmt.Sprintf("read-repair-d%d", dev), func(q *sim.Proc) {
		defer func() { a.repairing[dev] = false }()
		_, _ = a.RepairDevice(q, dev)
	})
	a.repairs = append(a.repairs, proc)
}

// WaitRepairsIdle blocks until every scheduled read-repair pass finishes.
func (a *Array) WaitRepairsIdle(p *sim.Proc) {
	procs := a.repairs
	a.repairs = nil
	p.Join(procs...)
}

// RepairDevice synchronously scrubs one device and repairs every corrupt
// extent it reports from a healthy replica of the owning shard. The returned
// report is the device's scrub report with Repaired updated to the extents
// this pass actually rewrote. Extents with no healthy peer copy are left in
// place (the shard stays degraded until one recovers); repeated scrub strikes
// against their zones eventually quarantine the zones device-side.
func (a *Array) RepairDevice(p *sim.Proc, dev int) (*core.ScrubReport, error) {
	m := a.members[dev]
	rep, err := m.Client.ScrubMedia(p)
	if err != nil {
		return nil, err
	}
	for _, ext := range rep.Corrupt {
		if a.repairExtent(p, dev, ext) {
			rep.Repaired++
		}
	}
	return rep, nil
}

// repairExtent rewrites one corrupt extent on dev from the first healthy
// replica that serves a verified copy. Reports whether the rewrite landed.
func (a *Array) repairExtent(p *sim.Proc, dev int, ext core.ExtentRef) bool {
	pt := a.partitionByName(ext.Keyspace)
	if pt == nil {
		return false // keyspace deleted (or never routed) — nothing to restore
	}
	addr := nvme.ExtentAddr{Kind: uint8(ext.Kind), Index: ext.Index, Granule: ext.Granule}
	for _, peer := range pt.replicas {
		if peer == dev || !a.members[peer].Healthy() {
			continue
		}
		data, err := a.members[peer].Client.ReadExtent(p, ext.Keyspace, addr)
		if err != nil {
			continue // peer's copy is rotted too (or the peer is failing); try the next
		}
		if err := a.members[dev].Client.RepairExtent(p, ext.Keyspace, addr, data); err != nil {
			return false
		}
		return true
	}
	return false
}

// ScrubDevice runs one synchronous scrub pass on a device without repairing
// (inspection, CLI) and returns its report.
func (a *Array) ScrubDevice(p *sim.Proc, dev int) (*core.ScrubReport, error) {
	return a.members[dev].Client.ScrubMedia(p)
}

// partitionByName resolves a device-side keyspace name (shard name) back to
// its partition, across every routed keyspace.
func (a *Array) partitionByName(name string) *partition {
	for _, ksName := range a.ksOrder {
		for _, pt := range a.keyspaces[ksName].parts {
			if pt.name == name {
				return pt
			}
		}
	}
	return nil
}

// CorruptExtent flips bits inside one granule of one device's replica of a
// shard — the array-level fault-injection hook the chaos campaign drives.
func (a *Array) CorruptExtent(p *sim.Proc, dev int, keyspace string, addr nvme.ExtentAddr) (int64, error) {
	return a.members[dev].Client.CorruptMedia(p, keyspace, addr)
}
