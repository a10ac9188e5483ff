// Package nvme defines the command interface between the KV-CSD client
// library and the device: the NVMe Key-Value command set (Store, Retrieve,
// Delete, Exist) plus KV-CSD's vendor extensions for operations the
// standard does not cover — keyspace management, bulk store, compaction,
// secondary index construction, and offloaded queries (paper §III, "NVMe").
//
// Commands travel through a QueuePair: a bounded submission queue drained by
// the device runtime, with per-command completions the host waits on. Queue
// interactions happen in virtual time under internal/sim.
package nvme

import (
	"errors"
	"fmt"

	"kvcsd/internal/compaction"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
)

// Opcode identifies a command. The first group mirrors the NVMe KV command
// set specification; the second group is KV-CSD vendor-specific.
type Opcode uint8

// Command opcodes.
const (
	// Standard NVMe KV command set.
	OpStore Opcode = iota
	OpRetrieve
	OpDelete
	OpExist
	_ // retired (List); opcode numbers are protocol values and never shift

	// KV-CSD vendor extensions.
	OpCreateKeyspace
	OpOpenKeyspace
	OpDeleteKeyspace
	OpBulkStore
	OpCompact
	OpCompactStatus
	OpBuildSecondaryIndex
	OpIndexStatus
	OpQueryPrimaryRange
	OpQuerySecondaryPoint
	OpQuerySecondaryRange
	OpKeyspaceInfo
	OpSync
	OpCompactWithIndexes

	// Integrity extensions: background media scrub, extent read/repair for
	// replica read-repair, and targeted corruption injection (test verb).
	OpScrubMedia
	OpReadExtent
	OpRepairExtent
	OpCorruptMedia

	// Collaborative compaction extensions: the host assist loop long-polls
	// merge jobs and pushes merged runs back; the array tier sets the split
	// policy and triggers cold-placement sweeps.
	OpHostMergePoll
	OpHostMergePush
	OpCompactPolicy
	OpMigrateCold
)

// opcodes is the opcode table, in declaration order: each opcode's name and
// whether it is idempotent — a replay after an ambiguous failure (timeout,
// power loss, a lost connection) leaves the same outcome. Reads and status
// polls are, trivially; writes because a replayed put or delete lands as a
// duplicate log record that deduplicates at compaction; ScrubMedia because
// re-verifying (and re-repairing with content-identical bytes) converges;
// CompactPolicy because a replay installs the same config again; MigrateCold
// because a replay sweeps a tier the first sweep already drained. Lifecycle
// commands (create/delete keyspace, compaction and index kicks) are not: a
// replay of one that landed reports a different status. Neither are
// CorruptMedia (a replay flips more bits) or the extent and host-merge
// commands. This is the one retry rule: the in-process client's retry loop
// and every device-backed row of the wire verb table read it.
var opcodes = [...]struct {
	name       string
	idempotent bool
}{
	OpStore:               {"Store", true},
	OpRetrieve:            {"Retrieve", true},
	OpDelete:              {"Delete", true},
	OpExist:               {"Exist", true},
	OpCreateKeyspace:      {"CreateKeyspace", false},
	OpOpenKeyspace:        {"OpenKeyspace", true},
	OpDeleteKeyspace:      {"DeleteKeyspace", false},
	OpBulkStore:           {"BulkStore", true},
	OpCompact:             {"Compact", false},
	OpCompactStatus:       {"CompactStatus", true},
	OpBuildSecondaryIndex: {"BuildSecondaryIndex", false},
	OpIndexStatus:         {"IndexStatus", true},
	OpQueryPrimaryRange:   {"QueryPrimaryRange", true},
	OpQuerySecondaryPoint: {"QuerySecondaryPoint", true},
	OpQuerySecondaryRange: {"QuerySecondaryRange", true},
	OpKeyspaceInfo:        {"KeyspaceInfo", true},
	OpSync:                {"Sync", true},
	OpCompactWithIndexes:  {"CompactWithIndexes", false},
	OpScrubMedia:          {"ScrubMedia", true},
	OpReadExtent:          {"ReadExtent", false},
	OpRepairExtent:        {"RepairExtent", false},
	OpCorruptMedia:        {"CorruptMedia", false},
	OpHostMergePoll:       {"HostMergePoll", false},
	OpHostMergePush:       {"HostMergePush", false},
	OpCompactPolicy:       {"CompactPolicy", true},
	OpMigrateCold:         {"MigrateCold", true},
}

// String names the opcode.
func (o Opcode) String() string {
	if int(o) < len(opcodes) && opcodes[o].name != "" {
		return opcodes[o].name
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Idempotent reports whether the command can be replayed after an ambiguous
// failure without changing the outcome (see opcodes for the rules).
func (o Opcode) Idempotent() bool { return int(o) < len(opcodes) && opcodes[o].idempotent }

// Status is a command completion status.
type Status uint8

// Completion statuses.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusExists
	StatusInvalid
	StatusKeyspaceState // operation not valid in the keyspace's current state
	StatusNoSpace
	StatusInternal
	StatusPoweredOff // device lost power; retry after it is restarted
	StatusCorrupted  // checksum mismatch on the read path; retry on another replica
	StatusAborted    // the queue shut down while the command waited; do not retry
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NotFound"
	case StatusExists:
		return "Exists"
	case StatusInvalid:
		return "Invalid"
	case StatusKeyspaceState:
		return "KeyspaceState"
	case StatusNoSpace:
		return "NoSpace"
	case StatusInternal:
		return "Internal"
	case StatusPoweredOff:
		return "PoweredOff"
	case StatusCorrupted:
		return "Corrupted"
	case StatusAborted:
		return "Aborted"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Err converts a non-OK status into an error (nil for StatusOK).
func (s Status) Err() error {
	if s == StatusOK {
		return nil
	}
	return fmt.Errorf("nvme: %s", s)
}

// SecondaryIndexSpec configures a secondary index per the paper: which byte
// range of the value holds the key and how to interpret it.
type SecondaryIndexSpec struct {
	Name   string
	Offset int // byte offset within the value
	Length int // byte length of the field
	Type   keyenc.SecondaryType
}

// Validate checks what a spec alone can tell: a name, a byte range, and the
// width its type demands. Whether the range fits the values is known only
// when the index builds.
func (s SecondaryIndexSpec) Validate() error {
	if s.Name == "" {
		return errors.New("nvme: secondary index needs a name")
	}
	if s.Offset < 0 || s.Length <= 0 {
		return errors.New("nvme: secondary index byte range invalid")
	}
	if w := s.Type.Width(); w != 0 && s.Length != w {
		return fmt.Errorf("nvme: type %s requires length %d, got %d", s.Type, w, s.Length)
	}
	return nil
}

// KVPair is one key-value record, used in bulk payloads and query results.
// In bulk store payloads, Tombstone marks a deletion (paper: bulk deletes).
type KVPair struct {
	Key       []byte
	Value     []byte
	Tombstone bool
}

// Command is a request sent from the host client to the device. Fields are
// interpreted per opcode; unused fields are zero.
type Command struct {
	Op       Opcode
	Keyspace string

	Key   []byte
	Value []byte

	// Bulk store payload (OpBulkStore).
	Pairs []KVPair

	// Range bounds (OpQueryPrimaryRange / OpQuerySecondaryRange), inclusive
	// low, exclusive high; nil means open.
	Low, High []byte

	// Secondary index operations.
	Index SecondaryIndexSpec
	// Indexes declares several secondary indexes at compaction time
	// (OpCompactWithIndexes, the consolidated construction extension).
	Indexes []SecondaryIndexSpec

	// ResultLimit caps query results (0 = unlimited).
	ResultLimit int

	// Wait is the status wait bit (OpCompactStatus, OpIndexStatus): the
	// device holds the command until the compaction or index build it asks
	// about has finished, then answers as the plain status command would. A
	// power cut answers it StatusPoweredOff and a shutdown StatusAborted.
	Wait bool

	// Extent addresses one checksummed granule (OpReadExtent, OpRepairExtent,
	// OpCorruptMedia); the granule's keyspace is Command.Keyspace and repair
	// payloads travel in Command.Value.
	Extent ExtentAddr

	// Span is the command's trace root, set by an instrumented client. The
	// queue and the device attach stage spans to it; nil when tracing is off.
	Span *obs.Span
}

// WireSize approximates the bytes the command occupies crossing PCIe: a fixed
// 64 B NVMe submission entry plus key/value/bulk payloads.
func (c *Command) WireSize() int64 {
	n := int64(64)
	n += int64(len(c.Key) + len(c.Value) + len(c.Low) + len(c.High))
	for _, p := range c.Pairs {
		n += int64(len(p.Key) + len(p.Value) + 8) // per-pair length headers
	}
	return n
}

// ExtentAddr addresses one checksummed granule of a keyspace cluster in the
// replica-independent form core.ExtentRef defines: the cluster kind (a
// core.ExtentKind value), the secondary-index name for SIDX extents, and the
// granule ordinal.
type ExtentAddr struct {
	Kind    uint8
	Index   string
	Granule int64
	// Bits is how many bits OpCorruptMedia flips (0 = device default).
	Bits int
}

// Completion is the device's response to a command.
type Completion struct {
	Status Status
	// Value holds a single result (OpRetrieve, OpReadExtent) or an encoded
	// scrub report (OpScrubMedia).
	Value []byte
	// Count reports scalar results (bit flips applied by OpCorruptMedia).
	Count int64
	// Pairs holds streamed query results.
	Pairs []KVPair
	// Exists answers OpExist.
	Exists bool
	// Info carries keyspace metadata (OpKeyspaceInfo / status ops).
	Info KeyspaceInfo
	// Done reports background-operation completion for status commands.
	Done bool
	// Progress carries compaction-pipeline progress on OpCompactStatus
	// (nil when the device predates the extension).
	Progress *compaction.Progress
}

// WireSize approximates the completion's size on the return path: a 16 B
// completion entry plus any returned data.
func (c *Completion) WireSize() int64 {
	n := int64(16 + len(c.Value))
	for _, p := range c.Pairs {
		n += int64(len(p.Key) + len(p.Value) + 8)
	}
	if c.Progress != nil {
		n += c.Progress.WireSize()
	}
	return n
}

// KeyspaceInfo mirrors the keyspace-manager metadata the paper describes:
// state, pair count, key bounds.
type KeyspaceInfo struct {
	Name       string
	State      string
	Pairs      int64
	Bytes      int64
	MinKey     []byte
	MaxKey     []byte
	Secondary  []string // names of built secondary indexes
	ZoneCount  int
	CompactDur sim.Time // device-side compaction duration, once finished
}

// submission is one command in flight: the command, the completion the device
// fills, and the event the submitter waits on, in one allocation. The
// submitter holds it as a *Handle and the dispatcher as a *Responder — two
// views of the same object, so a round trip allocates once.
type submission struct {
	q    *QueuePair
	cmd  *Command
	comp Completion
	done sim.Event
	// at is when Submit was called — the start of the queue-wait stage,
	// including any time spent blocked on a full submission queue.
	at sim.Time
}

// QueuePair is a bounded NVMe submission/completion queue between one or more
// host submitters and the device dispatch loop.
type QueuePair struct {
	env       *sim.Env
	depth     int
	queue     []*submission
	popWait   []*sim.Proc // device dispatchers waiting for work
	pushWait  []*sim.Proc // submitters waiting for queue space
	closed    bool
	submitted int64
	completed int64
}

// NewQueuePair creates a queue pair with the given submission-queue depth.
func NewQueuePair(env *sim.Env, depth int) *QueuePair {
	if depth < 1 {
		panic("nvme: queue depth must be >= 1")
	}
	return &QueuePair{env: env, depth: depth}
}

// Pending returns the number of commands waiting in the submission queue.
func (q *QueuePair) Pending() int { return len(q.queue) }

// Submitted returns the total number of commands ever submitted.
func (q *QueuePair) Submitted() int64 { return q.submitted }

// Completed returns the total number of commands completed.
func (q *QueuePair) Completed() int64 { return q.completed }

// wake moves one waiting process from list to runnable.
func (q *QueuePair) wake(list *[]*sim.Proc) {
	if len(*list) == 0 {
		return
	}
	p := (*list)[0]
	copy(*list, (*list)[1:])
	*list = (*list)[:len(*list)-1]
	q.env.Wake(p)
}

// Close marks the queue closed: once drained, Pop returns (nil, nil) to all
// current and future dispatchers. Submitting to a closed queue panics.
func (q *QueuePair) Close() {
	q.closed = true
	for _, w := range q.popWait {
		q.env.Wake(w)
	}
	q.popWait = q.popWait[:0]
}

// Closed reports whether Close was called.
func (q *QueuePair) Closed() bool { return q.closed }

// Submit enqueues cmd, blocking while the queue is full, and returns a
// handle the caller can Wait on for the completion.
func (q *QueuePair) Submit(p *sim.Proc, cmd *Command) *Handle {
	if q.closed {
		panic("nvme: submit on closed queue")
	}
	at := q.env.Now()
	for len(q.queue) >= q.depth {
		q.pushWait = append(q.pushWait, p)
		p.Block()
	}
	sub := &submission{q: q, cmd: cmd, at: at}
	sub.done.Init(q.env)
	q.queue = append(q.queue, sub)
	q.submitted++
	q.wake(&q.popWait)
	return (*Handle)(sub)
}

// Pop removes the oldest submission, blocking while the queue is empty.
// Called by the device dispatch loop. Returns (nil, nil) once the queue is
// closed and drained.
func (q *QueuePair) Pop(p *sim.Proc) (*Command, *Responder) {
	for len(q.queue) == 0 {
		if q.closed {
			return nil, nil
		}
		q.popWait = append(q.popWait, p)
		p.Block()
	}
	sub := q.queue[0]
	copy(q.queue, q.queue[1:])
	q.queue = q.queue[:len(q.queue)-1]
	q.wake(&q.pushWait)
	// Close out the queue-wait stage: submit call to dispatcher pickup.
	sub.cmd.Span.ChildFrom("queue-wait", obs.StageQueue, sub.at).End()
	return sub.cmd, (*Responder)(sub)
}

// Handle lets a submitter wait for its command's completion.
type Handle submission

// Wait blocks until the device completes the command and returns the
// completion.
func (h *Handle) Wait(p *sim.Proc) *Completion {
	p.Wait(&h.done)
	return &h.comp
}

// Ready reports whether the completion has been posted.
func (h *Handle) Ready() bool { return h.done.Fired() }

// WaitTimeout blocks until the completion arrives or d of virtual time
// passes, whichever is first, returning (completion, true) or (nil, false).
// On timeout the command is merely abandoned by this waiter: the device
// still executes it and posts the completion, which a later Wait would
// observe. Two helper processes arbitrate (a timer and a completion
// watcher); both always terminate because the device completes every
// submitted command, so abandoned handles leak nothing. The timer runs to
// its deadline either way, which can pad the tail of a run's virtual time
// by up to d.
func (h *Handle) WaitTimeout(p *sim.Proc, d sim.Duration) (*Completion, bool) {
	if d <= 0 {
		return h.Wait(p), true
	}
	if h.done.Fired() {
		return &h.comp, true
	}
	env := h.q.env
	either := sim.NewEvent(env)
	env.Go("nvme-timeout", func(tp *sim.Proc) {
		tp.Sleep(d)
		either.Signal()
	})
	env.Go("nvme-completion-watch", func(wp *sim.Proc) {
		wp.Wait(&h.done)
		either.Signal()
	})
	p.Wait(either)
	if h.done.Fired() {
		return &h.comp, true
	}
	return nil, false
}

// Responder posts the completion for a popped command.
type Responder submission

// Complete fills in the completion and wakes the submitter.
func (r *Responder) Complete(comp *Completion) {
	r.comp = *comp
	r.q.completed++
	r.done.Signal()
}
