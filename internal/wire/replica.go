package wire

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

func encodeReplicaEntry(e *encoder, en *ReplicaEntry) {
	e.uvarint(en.Term)
	e.uvarint(en.Index)
	e.u8(en.Kind)
	e.uvarint(en.Client)
	e.uvarint(en.Seq)
	e.bytes(en.Key)
	e.bytes(en.Value)
	e.uvarint(uint64(len(en.Members)))
	for _, m := range en.Members {
		e.uvarint(uint64(m))
	}
	e.uvarint(en.Epoch)
}

func decodeReplicaEntry(d *decoder) ReplicaEntry {
	en := ReplicaEntry{
		Term:   d.uvarint(),
		Index:  d.uvarint(),
		Kind:   d.u8(),
		Client: d.uvarint(),
		Seq:    d.uvarint(),
		Key:    d.bytes(),
		Value:  d.bytes(),
	}
	n := d.count(1)
	for i := 0; i < n && d.err == nil; i++ {
		en.Members = append(en.Members, uint32(d.uvarint()))
	}
	en.Epoch = d.uvarint()
	return en
}

func encodeReplicaMsg(e *encoder, m *ReplicaMsg) {
	e.uvarint(uint64(m.Shard))
	e.uvarint(uint64(m.From))
	e.uvarint(m.Term)
	e.uvarint(m.LastLogIndex)
	e.uvarint(m.LastLogTerm)
	e.uvarint(m.PrevIndex)
	e.uvarint(m.PrevTerm)
	e.uvarint(m.Commit)
	e.uvarint(m.Round)
	e.uvarint(uint64(len(m.Entries)))
	for i := range m.Entries {
		encodeReplicaEntry(e, &m.Entries[i])
	}
	e.uvarint(m.SnapIndex)
	e.uvarint(m.SnapTerm)
	e.uvarint(m.Epoch)
	e.boolean(m.Done)
	e.uvarint(uint64(len(m.Sessions)))
	for _, s := range m.Sessions {
		e.uvarint(s.Client)
		e.uvarint(s.Seq)
	}
	e.uvarint(m.Stream)
}

// decodeReplicaMsg decodes into m, reusing the entry and session arrays it
// holds (a fresh m has none).
func decodeReplicaMsg(d *decoder, m *ReplicaMsg) *ReplicaMsg {
	entries, sessions := m.Entries[:0], m.Sessions[:0]
	*m = ReplicaMsg{
		Shard:        uint32(d.uvarint()),
		From:         uint32(d.uvarint()),
		Term:         d.uvarint(),
		LastLogIndex: d.uvarint(),
		LastLogTerm:  d.uvarint(),
		PrevIndex:    d.uvarint(),
		PrevTerm:     d.uvarint(),
		Commit:       d.uvarint(),
		Round:        d.uvarint(),
	}
	n := d.count(8)
	for i := 0; i < n && d.err == nil; i++ {
		entries = append(entries, decodeReplicaEntry(d))
	}
	m.Entries = entries
	m.SnapIndex = d.uvarint()
	m.SnapTerm = d.uvarint()
	m.Epoch = d.uvarint()
	m.Done = d.boolean()
	n = d.count(2)
	for i := 0; i < n && d.err == nil; i++ {
		sessions = append(sessions, ReplicaSession{Client: d.uvarint(), Seq: d.uvarint()})
	}
	m.Sessions = sessions
	m.Stream = d.uvarint()
	if d.err != nil {
		return nil
	}
	return m
}

func encodeReplicaReply(e *encoder, r *ReplicaReply) {
	e.uvarint(uint64(r.Shard))
	e.uvarint(uint64(r.From))
	e.uvarint(r.Term)
	e.boolean(r.Success)
	e.uvarint(r.MatchIndex)
	e.uvarint(r.Round)
}

func decodeReplicaReply(d *decoder, r *ReplicaReply) *ReplicaReply {
	*r = ReplicaReply{
		Shard:      uint32(d.uvarint()),
		From:       uint32(d.uvarint()),
		Term:       d.uvarint(),
		Success:    d.boolean(),
		MatchIndex: d.uvarint(),
		Round:      d.uvarint(),
	}
	if d.err != nil {
		return nil
	}
	return r
}

func encodeRing(e *encoder, ring []RingEntry) {
	e.uvarint(uint64(len(ring)))
	for _, r := range ring {
		e.str(r.Keyspace)
		e.uvarint(uint64(r.Shard))
		e.uvarint(r.Epoch)
		e.varint(int64(r.Leader))
		e.uvarint(uint64(len(r.Members)))
		for _, m := range r.Members {
			e.uvarint(uint64(m))
		}
	}
}

func decodeRing(d *decoder) []RingEntry {
	n := d.count(5)
	if d.err != nil || n == 0 {
		return nil
	}
	ring := make([]RingEntry, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		r := RingEntry{
			Keyspace: d.str(),
			Shard:    uint32(d.uvarint()),
			Epoch:    d.uvarint(),
			Leader:   int32(d.varint()),
		}
		k := d.count(1)
		for j := 0; j < k && d.err == nil; j++ {
			r.Members = append(r.Members, uint32(d.uvarint()))
		}
		ring = append(ring, r)
	}
	if d.err != nil {
		return nil
	}
	return ring
}
