package array

import (
	"encoding/binary"
	"errors"
	"fmt"

	"kvcsd/internal/client"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// partition is one shard of an array keyspace: a device-side keyspace
// replicated on R devices. Pinned keyspaces have exactly one partition
// covering the whole key range; range-split keyspaces have P partitions
// with contiguous uint64-prefix ranges.
type partition struct {
	name     string // device-side keyspace name
	lo       uint64 // first key prefix owned (inclusive)
	hi       uint64 // last key prefix owned (inclusive)
	replicas []int  // device IDs, ring primary first
	handles  []*client.Keyspace
	staged   int64 // bytes staged via BulkPut since the last flush
}

// Keyspace is an array-level keyspace handle: operations are routed to the
// owning partitions and replicated across their devices.
type Keyspace struct {
	a     *Array
	name  string
	split bool
	parts []*partition
	specs []client.IndexSpec // secondary indexes declared through the array
}

var _ client.Contract = (*Keyspace)(nil)

// Name returns the keyspace name.
func (k *Keyspace) Name() string { return k.name }

// Partitions returns the number of shards (1 for pinned keyspaces).
func (k *Keyspace) Partitions() int { return len(k.parts) }

// Replicas returns the device IDs holding partition pi, primary first.
func (k *Keyspace) Replicas(pi int) []int {
	return append([]int(nil), k.parts[pi].replicas...)
}

// ShardName returns the device-side keyspace name of partition pi ("name" for
// pinned keyspaces, "name#pN" for range shards) — the name extent-level
// tooling (scrub, corrupt) must address devices with.
func (k *Keyspace) ShardName(pi int) string { return k.parts[pi].name }

// OwnersOf returns the device IDs holding the shard a key routes to,
// primary first.
func (k *Keyspace) OwnersOf(key []byte) []int {
	return append([]int(nil), k.partitionFor(key).replicas...)
}

// ShardMap renders the placement as "partition -> devices" rows, in
// partition order — the deterministic shard map tests assert on.
func (k *Keyspace) ShardMap() []string {
	out := make([]string, len(k.parts))
	for i, pt := range k.parts {
		out[i] = fmt.Sprintf("%s -> %v", pt.name, pt.replicas)
	}
	return out
}

// --- Creation and lifecycle -----------------------------------------------

// CreateKeyspace creates a keyspace pinned to one ring position: all its
// pairs live on the primary device and its R-1 ring successors.
func (a *Array) CreateKeyspace(p *sim.Proc, name string) (*Keyspace, error) {
	return a.create(p, name, 1)
}

// CreateRangeSharded creates one large keyspace split into parts contiguous
// key ranges (by the big-endian uint64 prefix of the key), each range an
// independently placed, replicated device keyspace. parts <= 0 defaults to
// the device count.
func (a *Array) CreateRangeSharded(p *sim.Proc, name string, parts int) (*Keyspace, error) {
	if parts <= 0 {
		parts = a.opts.Devices
	}
	return a.create(p, name, parts)
}

func (a *Array) create(p *sim.Proc, name string, parts int) (*Keyspace, error) {
	if _, ok := a.keyspaces[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrKeyspaceExists, name)
	}
	if _, ok := a.replicated[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrKeyspaceExists, name)
	}
	k := &Keyspace{a: a, name: name, split: parts > 1}
	step := rangeStep(parts)
	for i := 0; i < parts; i++ {
		pname := name
		if k.split {
			pname = fmt.Sprintf("%s#p%d", name, i)
		}
		pt := &partition{
			name:     pname,
			replicas: a.ring.Owners(pname, a.opts.Replicas),
		}
		if k.split {
			pt.lo = uint64(i) * step
			pt.hi = pt.lo + step - 1
			if i == parts-1 {
				pt.hi = ^uint64(0)
			}
		} else {
			pt.hi = ^uint64(0)
		}
		pt.handles = make([]*client.Keyspace, len(pt.replicas))
		errs := a.fanout(p, pt.replicas, func(q *sim.Proc, ri int) error {
			h, err := a.members[pt.replicas[ri]].Client.CreateKeyspace(q, pname)
			if err != nil {
				return err
			}
			pt.handles[ri] = h
			return nil
		})
		if err := a.writeOutcome(pt, errs); err != nil {
			return nil, err
		}
		k.parts = append(k.parts, pt)
	}
	a.keyspaces[name] = k
	a.ksOrder = append(a.ksOrder, name)
	return k, nil
}

// OpenKeyspace returns the handle for a keyspace this router created.
func (a *Array) OpenKeyspace(name string) (*Keyspace, error) {
	k, ok := a.keyspaces[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrKeyspaceUnknown, name)
	}
	return k, nil
}

// Keyspaces returns the names of all routed keyspaces in creation order.
func (a *Array) Keyspaces() []string {
	return append([]string(nil), a.ksOrder...)
}

// DeleteKeyspace removes a keyspace — fan-out or consensus-backed — from
// every owning device.
func (a *Array) DeleteKeyspace(p *sim.Proc, name string) error {
	if rk, ok := a.replicated[name]; ok {
		return a.deleteReplicated(p, rk)
	}
	k, ok := a.keyspaces[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrKeyspaceUnknown, name)
	}
	for _, pt := range k.parts {
		pt := pt
		errs := a.fanout(p, pt.replicas, func(q *sim.Proc, ri int) error {
			return a.members[pt.replicas[ri]].Client.DeleteKeyspace(q, pt.name)
		})
		if err := a.writeOutcome(pt, errs); err != nil {
			return err
		}
	}
	delete(a.keyspaces, name)
	for i, n := range a.ksOrder {
		if n == name {
			a.ksOrder = append(a.ksOrder[:i], a.ksOrder[i+1:]...)
			break
		}
	}
	return nil
}

// --- Routing helpers ------------------------------------------------------

// rangeStep returns the width of each of parts contiguous uint64 ranges.
func rangeStep(parts int) uint64 {
	if parts <= 1 {
		return 0
	}
	return ^uint64(0)/uint64(parts) + 1
}

// keyPrefix interprets the first 8 key bytes as a big-endian uint64
// (shorter keys are zero-padded), the coordinate range-split routing uses.
func keyPrefix(key []byte) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// partitionFor routes a key to its owning partition.
func (k *Keyspace) partitionFor(key []byte) *partition {
	if !k.split {
		return k.parts[0]
	}
	step := rangeStep(len(k.parts))
	i := int(keyPrefix(key) / step)
	if i >= len(k.parts) {
		i = len(k.parts) - 1
	}
	return k.parts[i]
}

// fanout runs fn once per replica concurrently (inline when there is only
// one) and returns the per-replica errors in replica order. Spawn order is
// the replica order, so scheduling is deterministic.
func (a *Array) fanout(p *sim.Proc, replicas []int, fn func(q *sim.Proc, ri int) error) []error {
	errs := make([]error, len(replicas))
	if len(replicas) == 1 {
		errs[0] = fn(p, 0)
		return errs
	}
	procs := make([]*sim.Proc, len(replicas))
	for ri := range replicas {
		ri := ri
		procs[ri] = a.env.Go(fmt.Sprintf("fanout-d%d", replicas[ri]), func(q *sim.Proc) {
			errs[ri] = fn(q, ri)
		})
	}
	p.Join(procs...)
	return errs
}

// writeOutcome folds per-replica write errors into one result and updates
// device health. Policy: a logical error (not retryable) wins — replicas
// must agree on logical outcomes; otherwise the write succeeds if at least
// one replica acknowledged (failed replicas are marked), and fails with the
// first device error only when every replica failed.
func (a *Array) writeOutcome(pt *partition, errs []error) error {
	var firstDev error
	var logical error
	acked := 0
	for ri, err := range errs {
		m := a.members[pt.replicas[ri]]
		switch {
		case err == nil:
			acked++
			a.noteSuccess(m)
		case client.Retryable(err):
			a.noteFailure(m)
			if firstDev == nil {
				firstDev = err
			}
		default:
			if logical == nil {
				logical = err
			}
		}
	}
	if logical != nil {
		return logical
	}
	if acked > 0 {
		return nil
	}
	if firstDev != nil {
		return firstDev
	}
	return ErrNoReplicas
}

// healthyReplicas returns replica indices whose device is not down (all of
// them when everything is down, so last-resort writes still go somewhere).
func (a *Array) healthyReplicas(pt *partition) []int {
	out := make([]int, 0, len(pt.replicas))
	for ri, dev := range pt.replicas {
		if a.members[dev].Healthy() {
			out = append(out, ri)
		}
	}
	if len(out) == 0 {
		for ri := range pt.replicas {
			out = append(out, ri)
		}
	}
	return out
}

// writeAll applies fn to every healthy replica of pt in parallel and folds
// the outcome.
func (k *Keyspace) writeAll(p *sim.Proc, pt *partition, fn func(q *sim.Proc, h *client.Keyspace) error) error {
	live := k.a.healthyReplicas(pt)
	devs := make([]int, len(live))
	for i, ri := range live {
		devs[i] = pt.replicas[ri]
	}
	errs := k.a.fanout(p, devs, func(q *sim.Proc, i int) error {
		return fn(q, pt.handles[live[i]])
	})
	// Fold over the attempted replicas only.
	folded := &partition{name: pt.name, replicas: devs}
	return k.a.writeOutcome(folded, errs)
}

// writeEach applies fn through writeAll to every partition in turn and stops
// at the first that fails.
func (k *Keyspace) writeEach(p *sim.Proc, fn func(q *sim.Proc, h *client.Keyspace) error) error {
	for _, pt := range k.parts {
		if err := k.writeAll(p, pt, fn); err != nil {
			return err
		}
	}
	return nil
}

// --- Writes ---------------------------------------------------------------

// Put stores one pair on every replica of the owning shard (write fan-out).
// Down replicas get a hint replayed when they rejoin.
func (k *Keyspace) Put(p *sim.Proc, key, value []byte) error {
	pt := k.partitionFor(key)
	k.a.hintDown(pt, hintPut, key, value)
	return k.writeAll(p, pt, func(q *sim.Proc, h *client.Keyspace) error {
		return h.Put(q, key, value)
	})
}

// Delete records a tombstone on every replica of the owning shard.
func (k *Keyspace) Delete(p *sim.Proc, key []byte) error {
	pt := k.partitionFor(key)
	k.a.hintDown(pt, hintDelete, key, nil)
	return k.writeAll(p, pt, func(q *sim.Proc, h *client.Keyspace) error {
		return h.Delete(q, key)
	})
}

// BulkPut stages a pair into the owning shard's bulk message on every
// replica. When a shard's staged bytes reach the bulk message size, all its
// replicas flush in parallel (the array's counterpart to the client's
// 128 KiB auto-flush, lifted to the fleet so replica transfers overlap).
func (k *Keyspace) BulkPut(p *sim.Proc, key, value []byte) error {
	pt := k.partitionFor(key)
	add := int64(len(key) + len(value) + 8)
	if pt.staged+add >= client.BulkMessageBytes && pt.staged > 0 {
		if err := k.flushPartition(p, pt); err != nil {
			return err
		}
	}
	pt.staged += add
	k.a.hintDown(pt, hintBulkPut, key, value)
	for _, ri := range k.a.healthyReplicas(pt) {
		if err := pt.handles[ri].BulkPut(p, key, value); err != nil {
			return err
		}
	}
	return nil
}

// BulkDelete stages a tombstone the same way BulkPut stages a pair.
func (k *Keyspace) BulkDelete(p *sim.Proc, key []byte) error {
	pt := k.partitionFor(key)
	add := int64(len(key) + 8)
	if pt.staged+add >= client.BulkMessageBytes && pt.staged > 0 {
		if err := k.flushPartition(p, pt); err != nil {
			return err
		}
	}
	pt.staged += add
	k.a.hintDown(pt, hintBulkDelete, key, nil)
	for _, ri := range k.a.healthyReplicas(pt) {
		if err := pt.handles[ri].BulkDelete(p, key); err != nil {
			return err
		}
	}
	return nil
}

// flushPartition pushes one shard's staged pairs on all replicas in
// parallel.
func (k *Keyspace) flushPartition(p *sim.Proc, pt *partition) error {
	pt.staged = 0
	return k.writeAll(p, pt, func(q *sim.Proc, h *client.Keyspace) error {
		return h.Flush(q)
	})
}

// Flush pushes every shard's staged bulk pairs.
func (k *Keyspace) Flush(p *sim.Proc) error {
	for _, pt := range k.parts {
		if err := k.flushPartition(p, pt); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes staged pairs and the device-side ingest buffers everywhere.
func (k *Keyspace) Sync(p *sim.Proc) error {
	for _, pt := range k.parts {
		pt := pt
		pt.staged = 0
		if err := k.writeAll(p, pt, func(q *sim.Proc, h *client.Keyspace) error {
			return h.Sync(q)
		}); err != nil {
			return err
		}
	}
	return nil
}

// --- Reads with failover --------------------------------------------------

// errReadMiss is the internal sentinel a read callback returns when the
// replica answered healthily but does not hold the key. The router then
// consults the remaining replicas before concluding not-found: a replica that
// rejoined after a power cut may have lost its unsynced tail while a peer
// still holds those pairs.
var errReadMiss = errors.New("array: replica miss")

// readWithFailover tries fn against the shard's replicas in read-preference
// order, failing over on device-level errors (updating health) and on healthy
// misses (stale-replica protection). The zero-th return reports which replica
// served.
func (k *Keyspace) readWithFailover(p *sim.Proc, pt *partition, fn func(q *sim.Proc, h *client.Keyspace) error) (int, error) {
	order := k.a.readOrder(pt.replicas)
	var lastErr error
	missedOn := -1
	for _, ri := range order {
		m := k.a.members[pt.replicas[ri]]
		err := fn(p, pt.handles[ri])
		if err == nil {
			k.a.noteSuccess(m)
			return pt.replicas[ri], nil
		}
		if errors.Is(err, errReadMiss) {
			k.a.noteSuccess(m)
			if missedOn < 0 {
				missedOn = pt.replicas[ri]
			}
			continue
		}
		if client.Corrupted(err) {
			// Rotted bytes on this replica, not a sick device: fail over
			// without a health strike and schedule background read-repair.
			k.a.scheduleRepair(pt.replicas[ri])
			lastErr = err
			continue
		}
		if !client.Retryable(err) {
			return pt.replicas[ri], err
		}
		k.a.noteFailure(m)
		lastErr = err
	}
	if missedOn >= 0 {
		return missedOn, errReadMiss
	}
	if lastErr == nil {
		lastErr = ErrNoReplicas
	}
	return -1, lastErr
}

// Get retrieves the value for a key, failing over to a replica when the
// preferred device errors.
func (k *Keyspace) Get(p *sim.Proc, key []byte) ([]byte, bool, error) {
	pt := k.partitionFor(key)
	var val []byte
	_, err := k.readWithFailover(p, pt, func(q *sim.Proc, h *client.Keyspace) error {
		v, ok, err := h.Get(q, key)
		if err != nil {
			return err
		}
		if !ok {
			return errReadMiss // consult the other replicas before not-found
		}
		val = v
		return nil
	})
	if errors.Is(err, errReadMiss) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Exist probes for a key without transferring its value.
func (k *Keyspace) Exist(p *sim.Proc, key []byte) (bool, error) {
	pt := k.partitionFor(key)
	_, err := k.readWithFailover(p, pt, func(q *sim.Proc, h *client.Keyspace) error {
		v, err := h.Exist(q, key)
		if err != nil {
			return err
		}
		if !v {
			return errReadMiss
		}
		return nil
	})
	if errors.Is(err, errReadMiss) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Info aggregates keyspace metadata across shards (primary replica values;
// pairs, bytes, and zones sum, key bounds widen).
func (k *Keyspace) Info(p *sim.Proc) (nvme.KeyspaceInfo, error) {
	var out nvme.KeyspaceInfo
	out.Name = k.name
	for i, pt := range k.parts {
		pt := pt
		var info nvme.KeyspaceInfo
		_, err := k.readWithFailover(p, pt, func(q *sim.Proc, h *client.Keyspace) error {
			v, err := h.Info(q)
			if err != nil {
				return err
			}
			info = v
			return nil
		})
		if err != nil {
			return nvme.KeyspaceInfo{}, err
		}
		out.Pairs += info.Pairs
		out.Bytes += info.Bytes
		out.ZoneCount += info.ZoneCount
		if info.CompactDur > out.CompactDur {
			out.CompactDur = info.CompactDur
		}
		if i == 0 {
			out.State = info.State
			out.MinKey = info.MinKey
			out.MaxKey = info.MaxKey
			out.Secondary = info.Secondary
		} else {
			if info.State != out.State {
				out.State = "MIXED"
			}
			if len(info.MinKey) > 0 && (len(out.MinKey) == 0 || string(info.MinKey) < string(out.MinKey)) {
				out.MinKey = info.MinKey
			}
			if string(info.MaxKey) > string(out.MaxKey) {
				out.MaxKey = info.MaxKey
			}
		}
	}
	return out, nil
}
