package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"kvcsd/internal/codec"
)

// Consensus message bodies. The replica groups (internal/replica) speak
// Raft-style RPCs — RequestVote, AppendEntries, and a snapshot-streaming
// Migrate verb — and every one of them travels as an ordinary wire frame:
// framed, versioned, CRC32-C-protected, and decodable by the same fuzz-hardened
// payload machinery the client verbs use. A partition or a torn link therefore
// damages consensus traffic exactly the way it damages client traffic, and a
// packet capture of a shard group is readable with the same tooling.

// Log entry kinds carried in AppendEntries.
const (
	// EntryNop is the empty entry a fresh leader appends to commit its term.
	EntryNop uint8 = 0
	// EntryPut applies a key/value write to the shard state machine.
	EntryPut uint8 = 1
	// EntryDelete applies a tombstone.
	EntryDelete uint8 = 2
	// EntryConfig atomically flips the shard's member set (the replicated
	// config record that reshards ownership) and bumps the config epoch.
	EntryConfig uint8 = 3
)

// ReplicaEntry is one replicated-log entry on the wire.
type ReplicaEntry struct {
	Term  uint64
	Index uint64
	Kind  uint8

	// Client/Seq identify the proposing session for exactly-once apply:
	// retried proposals deduplicate inside the state machine, which is what
	// keeps ambiguous-retry histories linearizable.
	Client uint64
	Seq    uint64

	Key   []byte
	Value []byte

	// Members is the new member set of an EntryConfig flip (node IDs).
	Members []uint32
	// Epoch is the config epoch the flip advertises.
	Epoch uint64
}

// ReplicaSession is one (client, last-applied-seq) dedup record, streamed with
// the final migrate chunk so the new owner rejects the same replays the old
// owner would have.
type ReplicaSession struct {
	Client uint64
	Seq    uint64
}

// ReplicaMsg is the request body of a consensus frame. Fields are interpreted
// per opcode; unused fields are zero.
type ReplicaMsg struct {
	// Shard names the group the message belongs to.
	Shard uint32
	// From is the sending node ID.
	From uint32
	// Term is the sender's current term.
	Term uint64

	// RequestVote: candidate's last log coordinates.
	LastLogIndex uint64
	LastLogTerm  uint64

	// AppendEntries: log-matching point, leader commit index, and the
	// read-index confirmation round this heartbeat carries (0 = none).
	PrevIndex uint64
	PrevTerm  uint64
	Commit    uint64
	Round     uint64
	Entries   []ReplicaEntry

	// Migrate: snapshot coordinates of the streamed chunk (pairs ride in
	// Request.Pairs). Done marks the final chunk, which also carries the
	// dedup sessions and the log base the snapshot covers. Stream identifies
	// the migration stream the chunk belongs to, so a receiver never merges
	// staged chunks from an aborted earlier stream into a later install.
	SnapIndex uint64
	SnapTerm  uint64
	Epoch     uint64
	Done      bool
	Sessions  []ReplicaSession
	Stream    uint64
}

// ReplicaReply is the response body of a consensus frame.
type ReplicaReply struct {
	Shard uint32
	From  uint32
	Term  uint64
	// Success reports vote granted / log appended / chunk installed.
	Success bool
	// MatchIndex is the follower's highest log index matching the leader.
	MatchIndex uint64
	// Round echoes the read-index round (or migrate call) being acked.
	Round uint64
}

// DecodeScratch is where a receiver that handles one in-memory frame at a time
// (ParseFrame) and keeps nothing decoded from it has its frames decoded: the
// request or response a decode returns, its consensus body and that body's
// entry array are the scratch's own and are overwritten by its next decode,
// so a delivered consensus frame allocates nothing. Byte fields are views into
// the payload, as from DecodeRequest; pairs, a config entry's members and the
// client-verb bodies are allocated as they are there.
type DecodeScratch struct {
	req   Request
	resp  Response
	msg   ReplicaMsg
	reply ReplicaReply
}

// DecodeRequest is the package's DecodeRequest, decoding into the scratch.
func (s *DecodeScratch) DecodeRequest(h Header, payload []byte) (*Request, error) {
	return decodeRequest(h, payload, s)
}

// DecodeResponse is the package's DecodeResponse, decoding into the scratch.
func (s *DecodeScratch) DecodeResponse(h Header, payload []byte) (*Response, error) {
	return decodeResponse(h, payload, s)
}

// --- codecs -----------------------------------------------------------------

func appendReplicaEntry(b []byte, en *ReplicaEntry) []byte {
	b = binary.AppendUvarint(b, en.Term)
	b = binary.AppendUvarint(b, en.Index)
	b = append(b, en.Kind)
	b = binary.AppendUvarint(b, en.Client)
	b = binary.AppendUvarint(b, en.Seq)
	b = codec.AppendBytes(b, en.Key)
	b = codec.AppendBytes(b, en.Value)
	b = appendMembers(b, en.Members)
	return binary.AppendUvarint(b, en.Epoch)
}

func decodeReplicaEntry(d *decoder) ReplicaEntry {
	return ReplicaEntry{
		Term:    d.Uvarint(),
		Index:   d.Uvarint(),
		Kind:    d.U8(),
		Client:  d.Uvarint(),
		Seq:     d.Uvarint(),
		Key:     d.bytes(),
		Value:   d.bytes(),
		Members: decodeMembers(d),
		Epoch:   d.Uvarint(),
	}
}

func appendMembers(b []byte, members []uint32) []byte {
	b = binary.AppendUvarint(b, uint64(len(members)))
	for _, m := range members {
		b = binary.AppendUvarint(b, uint64(m))
	}
	return b
}

func decodeMembers(d *decoder) []uint32 {
	var members []uint32
	for range d.Count(1) {
		members = append(members, d.u32())
	}
	return members
}

func appendReplicaMsg(b []byte, m *ReplicaMsg) []byte {
	b = binary.AppendUvarint(b, uint64(m.Shard))
	b = binary.AppendUvarint(b, uint64(m.From))
	b = binary.AppendUvarint(b, m.Term)
	b = binary.AppendUvarint(b, m.LastLogIndex)
	b = binary.AppendUvarint(b, m.LastLogTerm)
	b = binary.AppendUvarint(b, m.PrevIndex)
	b = binary.AppendUvarint(b, m.PrevTerm)
	b = binary.AppendUvarint(b, m.Commit)
	b = binary.AppendUvarint(b, m.Round)
	b = binary.AppendUvarint(b, uint64(len(m.Entries)))
	for i := range m.Entries {
		b = appendReplicaEntry(b, &m.Entries[i])
	}
	b = binary.AppendUvarint(b, m.SnapIndex)
	b = binary.AppendUvarint(b, m.SnapTerm)
	b = binary.AppendUvarint(b, m.Epoch)
	b = codec.AppendBool(b, m.Done)
	b = binary.AppendUvarint(b, uint64(len(m.Sessions)))
	for _, s := range m.Sessions {
		b = binary.AppendUvarint(b, s.Client)
		b = binary.AppendUvarint(b, s.Seq)
	}
	return binary.AppendUvarint(b, m.Stream)
}

// decodeReplicaMsg decodes into m, reusing the entry and session arrays it
// holds (a fresh m has none).
func decodeReplicaMsg(d *decoder, m *ReplicaMsg) *ReplicaMsg {
	entries, sessions := m.Entries[:0], m.Sessions[:0]
	*m = ReplicaMsg{
		Shard:        d.u32(),
		From:         d.u32(),
		Term:         d.Uvarint(),
		LastLogIndex: d.Uvarint(),
		LastLogTerm:  d.Uvarint(),
		PrevIndex:    d.Uvarint(),
		PrevTerm:     d.Uvarint(),
		Commit:       d.Uvarint(),
		Round:        d.Uvarint(),
	}
	for range d.Count(9) {
		entries = append(entries, decodeReplicaEntry(d))
	}
	m.Entries = entries
	m.SnapIndex = d.Uvarint()
	m.SnapTerm = d.Uvarint()
	m.Epoch = d.Uvarint()
	m.Done = d.Bool()
	for range d.Count(2) {
		sessions = append(sessions, ReplicaSession{Client: d.Uvarint(), Seq: d.Uvarint()})
	}
	m.Sessions = sessions
	m.Stream = d.Uvarint()
	return m
}

func appendReplicaReply(b []byte, r *ReplicaReply) []byte {
	b = binary.AppendUvarint(b, uint64(r.Shard))
	b = binary.AppendUvarint(b, uint64(r.From))
	b = binary.AppendUvarint(b, r.Term)
	b = codec.AppendBool(b, r.Success)
	b = binary.AppendUvarint(b, r.MatchIndex)
	return binary.AppendUvarint(b, r.Round)
}

func decodeReplicaReply(d *decoder, r *ReplicaReply) *ReplicaReply {
	*r = ReplicaReply{
		Shard:      d.u32(),
		From:       d.u32(),
		Term:       d.Uvarint(),
		Success:    d.Bool(),
		MatchIndex: d.Uvarint(),
		Round:      d.Uvarint(),
	}
	return r
}

func appendRing(b []byte, ring []RingEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(ring)))
	for _, r := range ring {
		b = codec.AppendBytes(b, r.Keyspace)
		b = binary.AppendUvarint(b, uint64(r.Shard))
		b = binary.AppendUvarint(b, r.Epoch)
		b = binary.AppendVarint(b, int64(r.Leader))
		b = appendMembers(b, r.Members)
	}
	return b
}

func decodeRing(d *decoder) []RingEntry {
	n := d.Count(5)
	if n == 0 {
		return nil
	}
	ring := make([]RingEntry, 0, n)
	for range n {
		r := RingEntry{
			Keyspace: d.str(),
			Shard:    d.u32(),
			Epoch:    d.Uvarint(),
		}
		leader := d.Varint()
		if leader < math.MinInt32 || leader > math.MaxInt32 {
			d.Fail(fmt.Errorf("ring leader %d out of range", leader))
		}
		r.Leader = int32(leader)
		r.Members = decodeMembers(d)
		ring = append(ring, r)
	}
	return ring
}
