// Package wire defines the KV-CSD network protocol: the command vocabulary a
// kvcsd-server speaks over TCP and the length-prefixed, CRC-framed binary
// encoding both ends use.
//
// The protocol is deliberately narrow — the same host/device command boundary
// the paper draws at NVMe, lifted onto a socket so many remote clients can
// drive one device (or a sharded array) concurrently:
//
//   - every frame carries a request ID, so responses may complete out of
//     order and a client can keep a deep pipeline per connection;
//   - range scans stream: a response with FlagMore set carries a chunk of
//     pairs and promises further frames under the same ID;
//   - every frame ends in a CRC32-C over header and payload, so a torn or
//     bit-flipped frame is detected at the boundary instead of corrupting
//     state behind it.
//
// Wire statuses 0..15 mirror nvme.Status values exactly; statuses >= 32 are
// transport-level outcomes (overloaded, shutting down, bad request) that have
// no device-side equivalent.
package wire

import (
	"errors"
	"fmt"

	"kvcsd/internal/compaction"
	"kvcsd/internal/nvme"
)

// Protocol constants.
const (
	// Magic opens every frame ("KCSW" little-endian).
	Magic uint32 = 0x5753434B
	// Version is the protocol revision; both ends must match. Version 2
	// widened the header with trace context (trace ID + parent span ID) so a
	// remote client span and the server/device spans it causes share one
	// causally-linked trace. Version 3 added the consensus verbs
	// (RequestVote/AppendEntries/Migrate), their request/response bodies,
	// and the shard-ownership ring table in Stats reports. Version 4 widened
	// the header with a session token, added the Hello handshake (tenant id,
	// priority class, resumable sessions), QoS lane bits in the flags byte,
	// and the per-tenant section of Stats reports. Version 5 added the
	// integrity verbs (Scrub/Corrupt), the extent-address request body, and
	// the Corrupted status. Version 6 added the compaction-control verbs
	// (CompactPolicy/MigrateCold), live pipeline progress on CompactStatus
	// responses, and the per-keyspace compaction section of Stats reports.
	Version uint8 = 6
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 44
	// TrailerSize is the CRC32-C trailer length in bytes.
	TrailerSize = 4
	// MaxPayload caps a frame's payload so a corrupt length field cannot
	// trigger an unbounded allocation.
	MaxPayload = 16 << 20
)

// Kind distinguishes frame directions.
type Kind uint8

// Frame kinds.
const (
	KindRequest  Kind = 1
	KindResponse Kind = 2
)

// Frame flags.
const (
	// FlagMore marks a streaming response frame: further frames with the
	// same request ID follow; only the final frame (FlagMore clear) carries
	// the definitive status and scalar fields.
	FlagMore uint8 = 1 << 0

	// Bits 1-2 of the flags byte carry an optional per-request lane override
	// (0 = none, otherwise lane+1). The override lives in the header, not the
	// payload, so admission control can classify a frame without decoding it.
	flagLaneShift       = 1
	flagLaneMask  uint8 = 0x3 << flagLaneShift

	// FlagWait is the status wait bit of nvme.Command on the wire (valid on
	// OpCompactStatus and OpIndexStatus only, no payload bytes): the server
	// answers the request when the job it asks about has ended, not at once.
	FlagWait uint8 = 1 << 3
)

// laneFlags folds a lane-override byte (0 = none, else lane+1) into flags.
func laneFlags(override uint8) uint8 {
	return (override & 0x3) << flagLaneShift
}

// laneFromFlags recovers the lane-override byte from flags.
func laneFromFlags(flags uint8) uint8 {
	return (flags & flagLaneMask) >> flagLaneShift
}

// Op identifies a request verb.
type Op uint8

// Request opcodes.
const (
	OpPing Op = iota + 1
	OpCreateKeyspace
	OpOpenKeyspace
	OpDeleteKeyspace
	OpPut
	OpDelete
	OpBulkPut
	OpSync
	OpGet
	OpExist
	OpScan
	OpSecondaryRange
	OpSecondaryPoint
	OpCompact
	OpCompactWithIndexes
	OpCompactStatus
	OpBuildIndex
	OpIndexStatus
	OpKeyspaceInfo
	OpStats
	OpPowerCut
	OpRecover

	// Consensus verbs (PR 7): the replica groups carry their replicated log
	// and elections in ordinary wire frames, so a consensus message on a
	// link is framed, CRC-protected, and inspectable exactly like a client
	// RPC. These verbs never arrive from remote clients; the gateway rejects
	// them as bad requests.
	OpRequestVote
	OpAppendEntries
	OpMigrate

	// OpHello (PR 8) opens or resumes a session: the request carries the
	// tenant id, priority class, and an optional resume token; the response
	// carries the (possibly new) session token plus how many backlog frames
	// will be replayed immediately after it. Handled socket-side by the
	// gateway — a Hello never enters the fair scheduler.
	OpHello

	// Integrity verbs (DESIGN.md §11): OpScrub runs a media scrub of one
	// device (an array backend also repairs what it finds from replica
	// copies); OpCorrupt flips bits inside one extent — the remote
	// fault-injection hook behind kvcsd-cli corrupt, mirroring power-cut.
	OpScrub
	OpCorrupt

	// Compaction-control verbs (DESIGN.md §12): OpCompactPolicy installs or
	// queries a device's collaborative-compaction config (Request.Value
	// carries the encoded compaction.Config, empty = query; the response
	// echoes the active config in Value). OpMigrateCold triggers one
	// lifetime-aware cold-placement sweep; the response reports zones moved
	// in Moved.
	OpCompactPolicy
	OpMigrateCold

	opMax // one past the last valid opcode
)

// verb is one row of the verb table: everything the protocol knows about an
// opcode apart from its payload fields. Adding a verb means one row here, one
// payload field (if it carries something new) and one arm in the server's
// dispatch.
type verb struct {
	name string
	// nvme is the device opcode the verb executes as, so remote errors can be
	// expressed with the client library's error types (client.StatusError
	// carries an nvme.Opcode). Transport-only verbs have no device command and
	// carry OpKeyspaceInfo as a stand-in.
	nvme nvme.Opcode
	// idempotent: the verb can be replayed after an ambiguous failure
	// (connection loss, timeout, shed) without changing the outcome. A verb
	// that executes a device command takes the command's answer (dev); only
	// a transport-only verb states its own.
	idempotent bool
	// lane is the default QoS lane; a session class or a per-frame override
	// (Request.Lane) takes precedence.
	lane Lane
}

// dev is the row of a verb that executes device command op: whether it may be
// replayed is the command's own rule (nvme.Opcode.Idempotent).
func dev(name string, op nvme.Opcode, lane Lane) verb {
	return verb{name, op, op.Idempotent(), lane}
}

// verbs is the verb table, indexed by opcode. Replay rules of the
// transport-only verbs, whose rows are written out: Ping, Stats and Hello
// read; PowerCut is idempotent while the device is off; a replayed Recover
// would report a different status and a replayed consensus message is not
// harmless. Lanes: point reads and cheap status polls are latency-sensitive,
// foreground writes and range queries normal, bulk ingest and maintenance
// bulk.
var verbs = [opMax]verb{
	OpPing:               {"Ping", nvme.OpOpenKeyspace, true, LaneLatency},
	OpCreateKeyspace:     dev("CreateKeyspace", nvme.OpCreateKeyspace, LaneNormal),
	OpOpenKeyspace:       dev("OpenKeyspace", nvme.OpOpenKeyspace, LaneLatency),
	OpDeleteKeyspace:     dev("DeleteKeyspace", nvme.OpDeleteKeyspace, LaneNormal),
	OpPut:                dev("Put", nvme.OpStore, LaneNormal),
	OpDelete:             dev("Delete", nvme.OpDelete, LaneNormal),
	OpBulkPut:            dev("BulkPut", nvme.OpBulkStore, LaneBulk),
	OpSync:               dev("Sync", nvme.OpSync, LaneNormal),
	OpGet:                dev("Get", nvme.OpRetrieve, LaneLatency),
	OpExist:              dev("Exist", nvme.OpExist, LaneLatency),
	OpScan:               dev("Scan", nvme.OpQueryPrimaryRange, LaneNormal),
	OpSecondaryRange:     dev("SecondaryRange", nvme.OpQuerySecondaryRange, LaneNormal),
	OpSecondaryPoint:     dev("SecondaryPoint", nvme.OpQuerySecondaryPoint, LaneNormal),
	OpCompact:            dev("Compact", nvme.OpCompact, LaneBulk),
	OpCompactWithIndexes: dev("CompactWithIndexes", nvme.OpCompactWithIndexes, LaneBulk),
	OpCompactStatus:      dev("CompactStatus", nvme.OpCompactStatus, LaneLatency),
	OpBuildIndex:         dev("BuildIndex", nvme.OpBuildSecondaryIndex, LaneBulk),
	OpIndexStatus:        dev("IndexStatus", nvme.OpIndexStatus, LaneLatency),
	OpKeyspaceInfo:       dev("KeyspaceInfo", nvme.OpKeyspaceInfo, LaneLatency),
	OpStats:              {"Stats", nvme.OpKeyspaceInfo, true, LaneLatency},
	OpPowerCut:           {"PowerCut", nvme.OpKeyspaceInfo, true, LaneBulk},
	OpRecover:            {"Recover", nvme.OpKeyspaceInfo, false, LaneBulk},
	OpRequestVote:        {"RequestVote", nvme.OpKeyspaceInfo, false, LaneNormal},
	OpAppendEntries:      {"AppendEntries", nvme.OpKeyspaceInfo, false, LaneNormal},
	OpMigrate:            {"Migrate", nvme.OpKeyspaceInfo, false, LaneBulk},
	OpHello:              {"Hello", nvme.OpKeyspaceInfo, true, LaneLatency},
	OpScrub:              dev("Scrub", nvme.OpScrubMedia, LaneBulk),
	OpCorrupt:            dev("Corrupt", nvme.OpCorruptMedia, LaneBulk),
	OpCompactPolicy:      dev("CompactPolicy", nvme.OpCompactPolicy, LaneLatency),
	OpMigrateCold:        dev("MigrateCold", nvme.OpMigrateCold, LaneBulk),
}

// Ops lists every valid opcode in numeric order.
func Ops() []Op {
	out := make([]Op, 0, opMax-1)
	for o := OpPing; o < opMax; o++ {
		out = append(out, o)
	}
	return out
}

// unknownVerb is the row unknown opcodes read as.
var unknownVerb = verb{nvme: nvme.OpKeyspaceInfo, lane: LaneNormal}

func (o Op) row() *verb {
	if o.Valid() {
		return &verbs[o]
	}
	return &unknownVerb
}

// String names the opcode.
func (o Op) String() string {
	if o.Valid() {
		return verbs[o].name
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Valid reports whether o is a known request opcode.
func (o Op) Valid() bool { return o >= OpPing && o < opMax }

// NVMe maps a wire verb to the NVMe opcode the device executes for it.
func (o Op) NVMe() nvme.Opcode { return o.row().nvme }

// Idempotent reports whether a verb can be replayed after an ambiguous
// failure without changing the outcome.
func (o Op) Idempotent() bool { return o.row().idempotent }

// Status is a response outcome. Values 0..15 mirror nvme.Status; values from
// 32 are transport-level.
type Status uint8

// Response statuses.
const (
	StatusOK            = Status(nvme.StatusOK)
	StatusNotFound      = Status(nvme.StatusNotFound)
	StatusExists        = Status(nvme.StatusExists)
	StatusInvalid       = Status(nvme.StatusInvalid)
	StatusKeyspaceState = Status(nvme.StatusKeyspaceState)
	StatusNoSpace       = Status(nvme.StatusNoSpace)
	StatusInternal      = Status(nvme.StatusInternal)
	StatusPoweredOff    = Status(nvme.StatusPoweredOff)
	StatusCorrupted     = Status(nvme.StatusCorrupted)

	// StatusOverloaded is the admission-control shed: the server refused the
	// request instead of queueing it unboundedly. Safe to retry with backoff.
	StatusOverloaded Status = 32
	// StatusShuttingDown reports a draining server that accepts no new work.
	StatusShuttingDown Status = 33
	// StatusBadRequest reports an undecodable or malformed request.
	StatusBadRequest Status = 34
	// StatusUnavailable reports that no replica could serve the request.
	StatusUnavailable Status = 35
	// StatusSessionUnknown reports a frame carrying a session token the
	// server does not recognize on this connection: the session expired, was
	// never opened, or belongs to another connection. The client must
	// re-handshake with Hello.
	StatusSessionUnknown Status = 36
)

// FromNVMe converts a device completion status to its wire value.
func FromNVMe(s nvme.Status) Status { return Status(s) }

// NVMe converts back to the device status; ok is false for the
// transport-level statuses that have no device equivalent.
func (s Status) NVMe() (nvme.Status, bool) {
	if s < 16 {
		return nvme.Status(s), true
	}
	return 0, false
}

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOverloaded:
		return "Overloaded"
	case StatusShuttingDown:
		return "ShuttingDown"
	case StatusBadRequest:
		return "BadRequest"
	case StatusUnavailable:
		return "Unavailable"
	case StatusSessionUnknown:
		return "SessionUnknown"
	}
	if ns, ok := s.NVMe(); ok {
		return ns.String()
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Transport-level errors, matched with errors.Is by both ends.
var (
	// ErrOverloaded is the typed load-shed outcome: the server's admission
	// cap was reached and the request was refused, not queued.
	ErrOverloaded = errors.New("wire: server overloaded (request shed by admission control)")
	// ErrShuttingDown reports a request refused by a draining server.
	ErrShuttingDown = errors.New("wire: server shutting down")
	// ErrBadRequest reports a request the server could not decode.
	ErrBadRequest = errors.New("wire: bad request")
	// ErrUnavailable reports that no replica could serve the request.
	ErrUnavailable = errors.New("wire: no replica available")
	// ErrSessionUnknown reports a frame whose session token the server did
	// not recognize; the client must re-handshake.
	ErrSessionUnknown = errors.New("wire: unknown session token")
)

// Err maps a transport-level status to its sentinel error; device statuses
// return nil (the client library renders those through client.StatusError).
func (s Status) Err() error {
	switch s {
	case StatusOverloaded:
		return ErrOverloaded
	case StatusShuttingDown:
		return ErrShuttingDown
	case StatusBadRequest:
		return ErrBadRequest
	case StatusUnavailable:
		return ErrUnavailable
	case StatusSessionUnknown:
		return ErrSessionUnknown
	}
	return nil
}

// TraceContext is the cross-process trace linkage carried in every frame
// header: TraceID names the end-to-end trace a request belongs to, SpanID the
// sender-side span that caused the frame. Zero values mean "untraced".
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Lane is a QoS service lane. The fair scheduler serves lanes in weighted
// priority order: latency-sensitive point reads ahead of normal foreground
// ops ahead of bulk loads and maintenance.
type Lane uint8

// Service lanes, highest priority first.
const (
	LaneLatency Lane = iota
	LaneNormal
	LaneBulk
	// NumLanes is the number of service lanes.
	NumLanes = 3
)

// String names the lane.
func (l Lane) String() string {
	switch l {
	case LaneLatency:
		return "latency"
	case LaneNormal:
		return "normal"
	case LaneBulk:
		return "bulk"
	}
	return fmt.Sprintf("Lane(%d)", uint8(l))
}

// LaneOf maps an opcode to its default service lane. A session class or
// per-frame override (Request.Lane) takes precedence over this mapping.
func LaneOf(op Op) Lane { return op.row().lane }

// LaneOverride encodes a lane as the Request.Lane override byte (lane+1, so
// zero keeps meaning "no override").
func LaneOverride(l Lane) uint8 { return uint8(l)%NumLanes + 1 }

// DecodeLaneOverride decodes an override byte; ok is false when no override
// was set.
func DecodeLaneOverride(v uint8) (Lane, bool) {
	if v == 0 || v > NumLanes {
		return LaneNormal, false
	}
	return Lane(v - 1), true
}

// Request is one decoded client request. Fields are interpreted per opcode;
// unused fields are zero.
type Request struct {
	ID       uint64
	Op       Op
	Keyspace string

	// Trace is the client-side trace context (zero when the client does not
	// trace). The server opens its rpc span as a child of Trace.SpanID so a
	// merged export renders one causal timeline across both processes.
	Trace TraceContext

	// Session is the session token carried in the frame header (0 =
	// unsessioned; the request is charged to the anonymous tenant).
	Session uint64

	// Lane is the per-request lane override carried in the frame flags
	// (0 = none; otherwise uint8(lane)+1 — see LaneOverride).
	Lane uint8

	// Wait is FlagWait: a status request answered when its job has ended.
	Wait bool

	Key   []byte
	Value []byte

	// Low/High bound range queries (inclusive low, exclusive high; nil open).
	Low, High []byte

	// Pairs is the bulk-put payload.
	Pairs []nvme.KVPair

	// Index names/configures a secondary index; Indexes declares several at
	// compaction time (OpCompactWithIndexes).
	Index   nvme.SecondaryIndexSpec
	Indexes []nvme.SecondaryIndexSpec

	// Limit caps query results (0 = unlimited).
	Limit uint32

	// Parts asks CreateKeyspace for a range-sharded keyspace with that many
	// partitions (0 or 1 = pinned) — meaningful only against an array.
	Parts uint32

	// Device targets one device of the server's fleet (PowerCut/Recover/
	// Scrub/Corrupt/MigrateCold); a single-device server has only device 0.
	// An index the fleet does not have is answered StatusInvalid.
	Device uint32

	// Extent addresses one checksummed granule for OpCorrupt frames (nil on
	// every other verb); the granule's keyspace is Keyspace.
	Extent *nvme.ExtentAddr

	// Replica carries the consensus message body for OpRequestVote,
	// OpAppendEntries, and OpMigrate frames (nil on every client verb).
	Replica *ReplicaMsg

	// Hello carries the session handshake body for OpHello frames (nil on
	// every other verb).
	Hello *HelloMsg

	// body is the pooled frame body the byte fields view (see Release).
	body *frameBody
}

// DeviceHealth is one array member's health in a stats report.
type DeviceHealth struct {
	ID       uint32
	Down     bool
	Failures uint32
}

// RPCOpStats is one opcode's gateway-side RPC accounting in a stats report.
// Stage totals are nanoseconds; Service/Virtual are the dual-clock pair (real
// goroutine time vs simulated device time).
type RPCOpStats struct {
	Op        Op
	Count     int64
	Errs      int64
	DecodeNs  int64
	QueueNs   int64
	ServiceNs int64
	VirtualNs int64
	WriteNs   int64
}

// RPCReport is the gateway's RPC metrics snapshot: per-opcode stage totals
// plus the admission/coalescing counters. Attached to Stats responses so a
// remote client can see the server's own view of the traffic it carried.
type RPCReport struct {
	Ops       []RPCOpStats
	Accepted  int64
	Shed      int64
	Refused   int64
	BadFrames int64
	Coalesced int64
	Batches   int64
	SlowOps   int64
}

// StatsReport is the server-side statistics snapshot the Stats verb returns.
type StatsReport struct {
	Devices      uint32
	Commands     int64
	MediaRead    int64
	MediaWrite   int64
	HostToDevice int64
	DeviceToHost int64
	AppWrite     int64
	VirtualNanos int64 // server virtual clock at snapshot time
	Health       []DeviceHealth

	// RPC carries the gateway's RPC metrics (nil from backends that answer
	// stats without a gateway in front).
	RPC *RPCReport

	// Tenants is the per-tenant QoS accounting (admission, sheds by cause,
	// queue depths, backlog bytes per lane), nil when the server runs
	// without a session manager. Sorted by tenant name.
	Tenants []TenantStats

	// Ring is the shard-ownership table (keyspace shard -> devices, epoch,
	// leader), nil from single-device backends. It closes the placement
	// blind spot: kvcsd-cli stats and zns-inspect render it directly.
	Ring []RingEntry

	// Compactions is the per-keyspace compaction progress section (nil when
	// no keyspace has ever compacted). An array backend aggregates shards:
	// one row per keyspace, counters summed, stage = the furthest-behind
	// shard's stage.
	Compactions []compaction.KeyspaceProgress
}

// RingEntry is one row of the shard-ownership table: which devices hold a
// shard, under which config epoch, and (for consensus-backed groups) which
// member currently leads it.
type RingEntry struct {
	Keyspace string
	Shard    uint32
	Epoch    uint64
	// Leader is the device ID of the shard-group leader, -1 when unknown or
	// when the shard is plain fan-out replicated (no leader concept).
	Leader int32
	// Members are the owning device IDs, ring order (primary first).
	Members []uint32
}

// Response is one decoded server response (or one streamed chunk of one —
// see FlagMore).
type Response struct {
	ID     uint64
	Op     Op
	Status Status
	// More mirrors FlagMore: this frame is a chunk; further frames follow.
	More bool

	// Trace echoes the request's trace context so a response frame on the
	// wire is self-describing (zero when the request was untraced).
	Trace TraceContext

	// Err carries optional server-side detail for non-OK statuses.
	Err string

	Value  []byte
	Exists bool
	Done   bool
	Pairs  []nvme.KVPair

	// Info answers KeyspaceInfo (valid when HasInfo).
	HasInfo bool
	Info    nvme.KeyspaceInfo

	// Stats answers OpStats.
	Stats *StatsReport

	// Report carries a human-readable recovery/power-cut summary.
	Report string

	// Replica carries the consensus reply body for OpRequestVote,
	// OpAppendEntries, and OpMigrate responses (nil on every client verb).
	Replica *ReplicaReply

	// Session is the session token echoed in the frame header (0 when the
	// request was unsessioned).
	Session uint64

	// Hello carries the session handshake reply for OpHello responses (nil
	// on every other verb).
	Hello *HelloReply

	// Progress carries the live pipeline state on OpCompactStatus responses
	// (nil from pre-v6 servers and on every other verb).
	Progress *compaction.Progress

	// Moved reports how many zones an OpMigrateCold sweep placed on the
	// cold tier.
	Moved int64

	// body is the pooled frame body the byte fields view (see Release).
	body *frameBody
}
