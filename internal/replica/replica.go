// Package replica implements consensus-backed shard groups for the KV-CSD
// array: per-shard replicated state machines with an elected leader and a
// replicated log carried over the wire protocol, all inside the deterministic
// virtual-time simulator so that elections, replication, partitions, and
// failovers are seed-reproducible.
//
// The protocol is Raft-shaped: terms, RequestVote with log-up-to-date checks,
// AppendEntries with log matching and quorum commit, a no-op entry appended by
// every fresh leader, CheckQuorum leader step-down, and leader-lease reads: a
// leader serves a read at its commit index with no frame while a quorum
// acknowledged one of its rounds within the last election timeout (less a
// clock-drift margin), because a node that acknowledged it refuses to vote
// for anyone else until the election timeout has passed; without the lease a
// read waits for a read-index round. Writes carry a (client, seq) session
// identity and the state machine deduplicates applies, so a client that
// retries after an ambiguous failure cannot double-apply — the property the
// linearizability checker in internal/linearize leans on.
//
// Membership changes are single-server config entries that take membership
// effect when appended and flip the routing table (with an epoch bump) when
// applied; elastic resharding streams a state-machine snapshot to the new
// owner over Migrate frames and then runs add-then-remove config changes, so
// any two successive configs share a quorum.
//
// A leader sends every log entry to every follower once: it counts an entry
// sent when it ships it, not when it is acknowledged, and goes back only when
// a follower refuses a frame (see progress in group.go). Followers
// acknowledge what is in their log and apply afterwards.
//
// Every consensus message is genuinely encoded to a wire frame (CRC and all)
// on send and decoded on delivery: the transport is the same protocol a
// remote shard group would speak, just running over simulated links (who owns
// such a frame is stated in transport.go).
package replica

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
)

// Roles of a group member.
const (
	roleFollower = iota
	roleCandidate
	roleLeader
)

// Errors returned by client operations. ErrUnknown is the ambiguous outcome:
// the proposal may or may not have committed (leader lost quorum or crashed
// mid-flight). It is safe to retry — session dedup makes the retry
// exactly-once — and the linearizability checker treats the operation as
// possibly-applied.
var (
	ErrDown     = errors.New("replica: node is down")
	ErrUnknown  = errors.New("replica: result unknown (leader lost quorum)")
	ErrNotReady = errors.New("replica: leader not ready (no committed entry this term)")
	ErrNoLeader = errors.New("replica: no leader reachable")
	ErrStopped  = errors.New("replica: cluster stopped")
)

// NotLeaderError redirects a client to the leader the contacted node last
// heard from (-1 when unknown).
type NotLeaderError struct{ Hint int }

func (e *NotLeaderError) Error() string {
	return fmt.Sprintf("replica: not leader (hint %d)", e.Hint)
}

// Definite reports whether err proves the operation did NOT take effect. Only
// such errors may be recorded as failed in an operation history; everything
// else must stay ambiguous — including ErrStopped, which can surface after
// an entry was appended but before its fate was decided.
func Definite(err error) bool {
	var nl *NotLeaderError
	return errors.As(err, &nl) ||
		errors.Is(err, ErrDown) || errors.Is(err, ErrNotReady) ||
		errors.Is(err, ErrNoLeader)
}

// Command is one state-machine mutation (a put or a delete).
type Command struct {
	Kind  uint8 // wire.EntryPut or wire.EntryDelete
	Key   []byte
	Value []byte
}

// StateMachine is the replicated application state of one shard. Apply must
// be deterministic; Snapshot/Restore must round-trip the full state. The
// sim.Proc lets device-backed implementations charge virtual time. A machine
// that also has a Close method is closed once its cluster has stopped and no
// call into it is in flight: nothing calls it again.
type StateMachine interface {
	Apply(p *sim.Proc, cmd Command) error
	Lookup(p *sim.Proc, key []byte) (value []byte, found bool, err error)
	Snapshot(p *sim.Proc) ([]nvme.KVPair, error)
	Restore(p *sim.Proc, pairs []nvme.KVPair) error
}

// MemKV is the reference in-memory state machine used by tests, chaos, and
// the failover benchmark.
type MemKV struct {
	m map[string][]byte
}

// NewMemKV returns an empty in-memory state machine.
func NewMemKV() *MemKV { return &MemKV{m: make(map[string][]byte)} }

// Apply implements StateMachine.
func (s *MemKV) Apply(p *sim.Proc, cmd Command) error {
	switch cmd.Kind {
	case entryPut:
		v := make([]byte, len(cmd.Value))
		copy(v, cmd.Value)
		s.m[string(cmd.Key)] = v
	case entryDelete:
		delete(s.m, string(cmd.Key))
	}
	return nil
}

// Has reports whether key is present, without copying its value.
func (s *MemKV) Has(key []byte) bool {
	_, ok := s.m[string(key)]
	return ok
}

// Lookup implements StateMachine.
func (s *MemKV) Lookup(p *sim.Proc, key []byte) ([]byte, bool, error) {
	v, ok := s.m[string(key)]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true, nil
}

// Snapshot implements StateMachine; pairs are sorted for determinism.
func (s *MemKV) Snapshot(p *sim.Proc) ([]nvme.KVPair, error) {
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]nvme.KVPair, 0, len(keys))
	for _, k := range keys {
		pairs = append(pairs, nvme.KVPair{Key: []byte(k), Value: s.m[k]})
	}
	return pairs, nil
}

// Restore implements StateMachine.
func (s *MemKV) Restore(p *sim.Proc, pairs []nvme.KVPair) error {
	s.m = make(map[string][]byte, len(pairs))
	for _, kv := range pairs {
		v := make([]byte, len(kv.Value))
		copy(v, kv.Value)
		s.m[string(kv.Key)] = v
	}
	return nil
}

// Protocol timing, on the virtual clock.
const (
	// electionTimeout is the base of the randomized election timer, and how
	// long a leader keeps serving without hearing from a quorum.
	electionTimeout sim.Duration = 10 * time.Millisecond
	// heartbeatInterval is how often an idle leader sends AppendEntries.
	heartbeatInterval sim.Duration = 2 * time.Millisecond
	// tickInterval is the period of every node's timer proc.
	tickInterval sim.Duration = time.Millisecond
	// linkDelay is the one-way latency of a consensus frame between nodes.
	linkDelay sim.Duration = 200 * time.Microsecond
	// leaseDrift is how much sooner a leader's lease runs out than the vote
	// stickiness of the followers that granted it: the margin for clocks that
	// run at different rates, here up to 10 % apart.
	leaseDrift sim.Duration = time.Millisecond
)

// Options configures a cluster of shard groups.
type Options struct {
	// Nodes is the number of replica nodes (IDs 0..Nodes-1).
	Nodes int
	// Shards is the number of independent shard groups.
	Shards int
	// ReplicationFactor is the member count per shard group.
	ReplicationFactor int
	// Seed drives election jitter and client backoff.
	Seed int64

	// NewSM builds the state machine for (shard, node); nil means MemKV.
	NewSM func(shard, node int) StateMachine

	// Members, when set, overrides the default round-robin initial placement
	// with an explicit member list per shard (the array uses its placement
	// ring here). Returned lists must be non-empty subsets of 0..Nodes-1.
	Members func(shard int) []int

	// Registry, when set, receives replication/election gauges.
	Registry *obs.Registry

	// GaugePrefix namespaces the gauge names (e.g. "ks0/"), letting several
	// clusters share one registry.
	GaugePrefix string

	// RetryAttempts bounds a session operation's retry loop (default 40).
	// Chaos campaigns lower it so operations racing a fault can end with an
	// ambiguous outcome instead of always retrying through to success.
	RetryAttempts int

	// UnsafeStaleReads serves reads from any replica's local state without a
	// read-index round. This is a deliberately broken mode: it exists as the
	// negative control proving the linearizability checker catches stale
	// reads. Never enable it outside that test.
	UnsafeStaleReads bool
}

func (o *Options) defaults() {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.ReplicationFactor <= 0 || o.ReplicationFactor > o.Nodes {
		o.ReplicationFactor = min(3, o.Nodes)
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 40
	}
}
