package array

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/nvme"
	"kvcsd/internal/replica"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// ReplicatedKeyspace is a consensus-backed array keyspace: the key range is
// split into shards, each shard a replicated state machine whose members are
// device-side keyspaces ("name#g<s>") on ring-placed devices. Writes commit
// at quorum through the shard's leader and reads are served by the leader
// under its lease (or after a read-index round), so — unlike the fan-out
// replication of plain array keyspaces — a power-cut replica can never serve
// stale data.
//
// The handle is safe for concurrent simulation processes (the server gateway
// runs pipelined requests as overlapping procs): each operation checks a
// replica session out of a pool, so every in-flight op has its own
// (client, seq) identity and retries stay exactly-once through session dedup.
// A session is owned by one proc at a time; sharing one session across
// concurrent ops would let a retried low-seq write be falsely deduplicated by
// a concurrent higher-seq write on the same client.
type ReplicatedKeyspace struct {
	a       *Array
	name    string
	shards  int
	cluster *replica.Cluster
	// sms are the state machines the cluster runs on, one per shard and
	// device: what DeleteKeyspace has to take off the devices again.
	sms []*deviceSM

	// sessions is the idle-session pool; nextClient numbers fresh sessions.
	// Sim procs are cooperatively scheduled and checkout/checkin never yield,
	// so the pool needs no lock.
	sessions   []*replica.Session
	nextClient uint64
}

// checkout takes an idle session or mints a fresh client identity.
func (k *ReplicatedKeyspace) checkout() *replica.Session {
	if n := len(k.sessions); n > 0 {
		s := k.sessions[n-1]
		k.sessions = k.sessions[:n-1]
		return s
	}
	k.nextClient++
	return k.cluster.Client(k.nextClient)
}

// checkin returns a session to the pool. Safe even after an ambiguous
// failure: a dangling proposal that commits later deduplicates against its
// own (client, seq), and the next op on this session uses a higher seq.
func (k *ReplicatedKeyspace) checkin(s *replica.Session) {
	k.sessions = append(k.sessions, s)
}

// deviceSM adapts one device-side keyspace to the replica.StateMachine
// interface. The device keyspace lifecycle is the paper's write-once ingest
// pipeline (WRITABLE until compaction seals it), so interleaved point reads
// cannot be served by the device while ingest is open; the state machine
// therefore keeps its working view in SoC DRAM (mem below, the same place
// the engine's ingest index lives) and pushes every apply into the
// device keyspace as durable ingest traffic — charging real device put
// latency on the apply path. Snapshot streams from the DRAM view; Restore
// drops and rebuilds the device keyspace from the snapshot. The keyspace is
// materialized lazily so the group shells every node hosts for resharding
// cost nothing until state actually lands on them.
type deviceSM struct {
	a    *Array
	ks   string // device-side keyspace name
	node int    // device ID
	h    *client.Keyspace
	mem  *replica.MemKV // the DRAM view; nil until state lands here

	// busy counts the Apply and Restore calls inside the device; dropped is
	// set once the keyspace is being deleted, and refuses further ones.
	busy    int
	dropped bool
}

var errDropped = errors.New("array: replicated keyspace deleted")

// enter admits one Apply or Restore (leave ends it) unless the machine has
// been dropped.
func (s *deviceSM) enter() error {
	if s.dropped {
		return errDropped
	}
	s.busy++
	return nil
}

func (s *deviceSM) leave() { s.busy-- }

// drop retires the machine: no new command reaches the device, the ones
// inside it finish, and the device keyspace — if state ever landed on this
// member — is deleted with its zones.
func (s *deviceSM) drop(p *sim.Proc) error {
	s.dropped = true
	for s.busy > 0 {
		p.Sleep(10 * time.Microsecond)
	}
	if s.h == nil {
		return nil
	}
	if err := s.a.members[s.node].Client.DeleteKeyspace(p, s.ks); err != nil {
		return err
	}
	s.h, s.mem = nil, nil
	return nil
}

// Close implements the replica cluster's close of a stopped machine: it lets
// go of the DRAM view, which only the stopped cluster read. The device
// keyspace stays until the keyspace is deleted.
func (s *deviceSM) Close() { s.mem = nil }

func (s *deviceSM) handle(p *sim.Proc) (*client.Keyspace, error) {
	if s.h != nil {
		return s.h, nil
	}
	m := s.a.members[s.node]
	h, err := m.Client.OpenKeyspace(p, s.ks)
	if err != nil {
		h, err = m.Client.CreateKeyspace(p, s.ks)
		if err != nil {
			return nil, err
		}
	}
	s.h = h
	return h, nil
}

// Apply implements replica.StateMachine: updates the DRAM view and ingests
// the pair (or tombstone) into the device keyspace.
func (s *deviceSM) Apply(p *sim.Proc, cmd replica.Command) error {
	if err := s.enter(); err != nil {
		return err
	}
	defer s.leave()
	h, err := s.handle(p)
	if err != nil {
		return err
	}
	if s.mem == nil {
		s.mem = replica.NewMemKV()
	}
	del := cmd.Kind == wire.EntryDelete
	if del && !s.mem.Has(cmd.Key) {
		return nil // absent key: skip the device tombstone too
	}
	_ = s.mem.Apply(p, cmd) // the in-memory machine never fails
	if !del {
		return h.Put(p, cmd.Key, cmd.Value)
	}
	if err := h.Delete(p, cmd.Key); !errors.Is(err, client.ErrNotFound) {
		return err
	}
	return nil
}

// Lookup implements replica.StateMachine, serving from the DRAM view (the
// device keyspace is still in its ingest phase and cannot point-read).
func (s *deviceSM) Lookup(p *sim.Proc, key []byte) ([]byte, bool, error) {
	if s.mem == nil {
		return nil, false, nil
	}
	return s.mem.Lookup(p, key)
}

// Snapshot implements replica.StateMachine, from the DRAM view.
func (s *deviceSM) Snapshot(p *sim.Proc) ([]nvme.KVPair, error) {
	if s.mem == nil {
		return nil, nil
	}
	return s.mem.Snapshot(p)
}

// Restore implements replica.StateMachine: the device keyspace is dropped and
// rebuilt from the snapshot, erasing any pairs a previous incarnation of the
// shard (or an un-replicated tail lost to a power cut) left behind.
func (s *deviceSM) Restore(p *sim.Proc, pairs []nvme.KVPair) error {
	if s.h == nil && s.mem == nil && len(pairs) == 0 {
		return nil // nothing materialized, nothing to reset
	}
	if err := s.enter(); err != nil {
		return err
	}
	defer s.leave()
	if s.mem == nil {
		s.mem = replica.NewMemKV()
	}
	_ = s.mem.Restore(p, pairs) // the in-memory machine never fails
	m := s.a.members[s.node]
	if s.h != nil {
		if err := m.Client.DeleteKeyspace(p, s.ks); err != nil {
			return err
		}
		s.h = nil
	}
	h, err := s.handle(p)
	if err != nil {
		return err
	}
	for _, kv := range pairs {
		if err := h.BulkPut(p, kv.Key, kv.Value); err != nil {
			return err
		}
	}
	if len(pairs) > 0 {
		if err := h.Flush(p); err != nil {
			return err
		}
	}
	return h.Sync(p)
}

// CreateReplicated creates a consensus-backed keyspace split into shards key
// ranges (same big-endian-prefix routing as CreateRangeSharded). Each shard's
// members come from the placement ring; the replication factor is the array's
// Replicas option, raised to 3 when the fleet allows it so shard groups can
// tolerate a device loss without losing quorum. shards <= 0 defaults to the
// device count.
func (a *Array) CreateReplicated(p *sim.Proc, name string, shards int) (*ReplicatedKeyspace, error) {
	if _, ok := a.keyspaces[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrKeyspaceExists, name)
	}
	if _, ok := a.replicated[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrKeyspaceExists, name)
	}
	if shards <= 0 {
		shards = a.opts.Devices
	}
	rf := a.opts.Replicas
	if rf < 3 && a.opts.Devices >= 3 {
		rf = 3
	}
	k := &ReplicatedKeyspace{a: a, name: name, shards: shards}
	k.cluster = replica.New(a.env, replica.Options{
		Nodes:             a.opts.Devices,
		Shards:            shards,
		ReplicationFactor: rf,
		Seed:              deriveSeed(a.opts.Seed, len(a.replicated)+1),
		Members: func(shard int) []int {
			return a.ring.Owners(groupName(name, shard), rf)
		},
		NewSM: func(shard, node int) replica.StateMachine {
			sm := &deviceSM{a: a, ks: groupName(name, shard), node: node}
			k.sms = append(k.sms, sm)
			return sm
		},
		Registry:    a.reg,
		GaugePrefix: name + "/",
	})
	// Wait until every shard has a ready leader so the first client op does
	// not eat the initial election timeout. Register the keyspace only once
	// every shard can serve: a half-initialized registration would make a
	// retry fail with ErrKeyspaceExists and hand leaderless shards to opens.
	for s := 0; s < shards; s++ {
		if _, err := k.cluster.WaitLeader(p, s); err != nil {
			k.cluster.Stop()
			return nil, err
		}
	}
	a.replicated[name] = k
	a.repOrder = append(a.repOrder, name)
	return k, nil
}

// deleteReplicated stops the keyspace's cluster — tickers, delivery procs and
// waiting clients all return — and deletes the device keyspace of every shard
// group member that materialised one. The name stays registered if a device
// could not be reached, so the delete can be repeated once it is back.
func (a *Array) deleteReplicated(p *sim.Proc, k *ReplicatedKeyspace) error {
	k.cluster.Stop()
	var first error
	for _, sm := range k.sms {
		if err := sm.drop(p); err != nil && first == nil {
			first = fmt.Errorf("delete %s on device %d: %w", sm.ks, sm.node, err)
		}
	}
	if first != nil {
		return first
	}
	delete(a.replicated, k.name)
	a.repOrder = slices.DeleteFunc(a.repOrder, func(n string) bool { return n == k.name })
	return nil
}

// groupName is the device-side keyspace name of one shard group.
func groupName(name string, shard int) string {
	return fmt.Sprintf("%s#g%d", name, shard)
}

// OpenReplicated returns the handle for a replicated keyspace this router
// created.
func (a *Array) OpenReplicated(name string) (*ReplicatedKeyspace, error) {
	k, ok := a.replicated[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrKeyspaceUnknown, name)
	}
	return k, nil
}

// ReplicatedKeyspaces returns the names of all replicated keyspaces in
// creation order.
func (a *Array) ReplicatedKeyspaces() []string {
	return append([]string(nil), a.repOrder...)
}

// Name returns the keyspace name.
func (k *ReplicatedKeyspace) Name() string { return k.name }

// Shards returns the shard-group count.
func (k *ReplicatedKeyspace) Shards() int { return k.shards }

// Cluster exposes the underlying consensus cluster (fault injection, tests).
func (k *ReplicatedKeyspace) Cluster() *replica.Cluster { return k.cluster }

// shardFor routes a key to its shard group by big-endian uint64 prefix.
func (k *ReplicatedKeyspace) shardFor(key []byte) int {
	if k.shards == 1 {
		return 0
	}
	i := int(keyPrefix(key) / rangeStep(k.shards))
	if i >= k.shards {
		i = k.shards - 1
	}
	return i
}

// Put commits one pair through the owning shard group's leader at quorum.
func (k *ReplicatedKeyspace) Put(p *sim.Proc, key, value []byte) error {
	s := k.checkout()
	defer k.checkin(s)
	return s.Put(p, k.shardFor(key), key, value)
}

// Delete commits a deletion through the owning shard group at quorum.
func (k *ReplicatedKeyspace) Delete(p *sim.Proc, key []byte) error {
	s := k.checkout()
	defer k.checkin(s)
	return s.Delete(p, k.shardFor(key), key)
}

// Get performs a linearizable read on the shard leader.
func (k *ReplicatedKeyspace) Get(p *sim.Proc, key []byte) ([]byte, bool, error) {
	s := k.checkout()
	defer k.checkin(s)
	return s.Get(p, k.shardFor(key), key)
}

// Exist is a linearizable Get that drops the value.
func (k *ReplicatedKeyspace) Exist(p *sim.Proc, key []byte) (bool, error) {
	_, ok, err := k.Get(p, key)
	return ok, err
}

// BulkPut commits the pair at once: a quorum write has no host-side staging
// to batch into, so the bulk verbs are the single-pair verbs.
func (k *ReplicatedKeyspace) BulkPut(p *sim.Proc, key, value []byte) error {
	return k.Put(p, key, value)
}

// BulkDelete commits the deletion at once (see BulkPut).
func (k *ReplicatedKeyspace) BulkDelete(p *sim.Proc, key []byte) error {
	return k.Delete(p, key)
}

// Flush is a no-op: nothing is staged.
func (k *ReplicatedKeyspace) Flush(*sim.Proc) error { return nil }

// Sync is a no-op: every committed write is already at quorum.
func (k *ReplicatedKeyspace) Sync(*sim.Proc) error { return nil }

// ErrUnsupported reports a contract verb that consensus-backed keyspaces do
// not replicate yet: scans, secondary indexes, compaction and keyspace info
// are refused rather than silently served stale from one member. The error
// text names the verb as the wire protocol does ("Scan not supported on
// replicated keyspace k").
var ErrUnsupported = errors.New("not supported on replicated keyspace")

func (k *ReplicatedKeyspace) refuse(verb wire.Op) error {
	return fmt.Errorf("%s %w %s", verb, ErrUnsupported, k.name)
}

// Scan is refused (see ErrUnsupported), as is every method below.
func (k *ReplicatedKeyspace) Scan(*sim.Proc, []byte, []byte, int) ([]nvme.KVPair, error) {
	return nil, k.refuse(wire.OpScan)
}

func (k *ReplicatedKeyspace) QuerySecondaryRange(*sim.Proc, string, []byte, []byte, int) ([]nvme.KVPair, error) {
	return nil, k.refuse(wire.OpSecondaryRange)
}

func (k *ReplicatedKeyspace) QuerySecondaryPoint(*sim.Proc, string, []byte, int) ([]nvme.KVPair, error) {
	return nil, k.refuse(wire.OpSecondaryPoint)
}

func (k *ReplicatedKeyspace) Compact(*sim.Proc) error { return k.refuse(wire.OpCompact) }

func (k *ReplicatedKeyspace) CompactWithIndexes(*sim.Proc, []client.IndexSpec) error {
	return k.refuse(wire.OpCompactWithIndexes)
}

func (k *ReplicatedKeyspace) CompactDone(*sim.Proc) (bool, error) {
	return false, k.refuse(wire.OpCompactStatus)
}

func (k *ReplicatedKeyspace) WaitCompacted(*sim.Proc) error { return k.refuse(wire.OpCompactStatus) }

func (k *ReplicatedKeyspace) BuildSecondaryIndex(*sim.Proc, client.IndexSpec) error {
	return k.refuse(wire.OpBuildIndex)
}

func (k *ReplicatedKeyspace) IndexBuilt(*sim.Proc, string) (bool, error) {
	return false, k.refuse(wire.OpIndexStatus)
}

func (k *ReplicatedKeyspace) WaitIndexBuilt(*sim.Proc, string) error {
	return k.refuse(wire.OpIndexStatus)
}

func (k *ReplicatedKeyspace) Info(*sim.Proc) (nvme.KeyspaceInfo, error) {
	return nvme.KeyspaceInfo{}, k.refuse(wire.OpKeyspaceInfo)
}

var _ client.Contract = (*ReplicatedKeyspace)(nil)

// Leader returns the device currently leading a shard group (-1 unknown).
func (k *ReplicatedKeyspace) Leader(shard int) int { return k.cluster.Leader(shard) }

// Members returns the devices holding a shard group.
func (k *ReplicatedKeyspace) Members(shard int) []int { return k.cluster.Members(shard) }

// Epoch returns a shard's current ownership epoch.
func (k *ReplicatedKeyspace) Epoch(shard int) uint64 { return k.cluster.Epoch(shard) }

// MoveShard streams a shard's state to device to and atomically flips
// ownership from device from (elastic resharding).
func (k *ReplicatedKeyspace) MoveShard(p *sim.Proc, shard, from, to int) error {
	return k.cluster.MoveShard(p, shard, from, to)
}

// RouteTable renders the shard-ownership view as wire ring entries.
func (k *ReplicatedKeyspace) RouteTable() []wire.RingEntry {
	return k.cluster.RouteTable(k.name)
}

// RingTable renders the whole array's ownership view — every plain keyspace
// partition (epoch 1, no leader: ownership is static ring placement) and
// every replicated shard group (live epoch and leader) — as wire ring
// entries, in creation order.
func (a *Array) RingTable() []wire.RingEntry {
	var out []wire.RingEntry
	for _, name := range a.ksOrder {
		k := a.keyspaces[name]
		for i, pt := range k.parts {
			members := make([]uint32, len(pt.replicas))
			for j, d := range pt.replicas {
				members[j] = uint32(d)
			}
			out = append(out, wire.RingEntry{
				Keyspace: name,
				Shard:    uint32(i),
				Epoch:    1,
				Leader:   -1,
				Members:  members,
			})
		}
	}
	for _, name := range a.repOrder {
		out = append(out, a.replicated[name].RouteTable()...)
	}
	return out
}
