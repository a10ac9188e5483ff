package replica

import (
	"slices"

	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// pending is a client proposal waiting for its log entry to commit and apply.
type pending struct {
	client uint64
	seq    uint64
	ev     *sim.Event
	err    error
}

// pendingRead is a read waiting for a quorum to acknowledge its round (0 for
// a read the lease serves) and for the leader to apply up to its index.
type pendingRead struct {
	round uint64
	index uint64
	key   []byte
	ev    *sim.Event
	value []byte
	found bool
	err   error
}

// group is one node's member state for one shard: a Raft-shaped replicated
// log plus the shard state machine. All state marked persistent survives
// Crash/Restart (it models what the node would have fsynced); everything else
// is rebuilt on restart.
type group struct {
	c     *Cluster
	shard int
	id    int // this node's ID

	// --- persistent ---------------------------------------------------------
	term         uint64
	votedFor     int
	log          []wire.ReplicaEntry // log[i].Index == base+1+i
	base         uint64              // snapshot: last included index / term / state
	baseTerm     uint64
	snapPairs    []nvme.KVPair
	snapSessions map[uint64]uint64
	baseMembers  []int // config as of the snapshot point
	baseEpoch    uint64

	// members/epoch are derived from baseMembers plus the latest config entry
	// in the log (config takes membership effect when appended).
	members []int
	epoch   uint64
	// configWalked counts log entries recomputeConfig has visited; a test
	// pins that steady-state appends add nothing to it.
	configWalked int

	// --- volatile -----------------------------------------------------------
	role      int
	leader    int // last observed leader, -1 unknown
	commit    uint64
	applied   uint64
	applyBusy bool // an applyCommitted drain loop is active
	sm        StateMachine
	sessions  map[uint64]uint64 // client -> highest applied seq

	votes map[int]bool
	// peers is the leader's view of every node, indexed by node ID and reset
	// when this node wins an election.
	peers []progress

	electionDeadline sim.Time
	heartbeatDue     sim.Time
	quorumCheckDue   sim.Time

	props map[uint64]*pending
	reads []*pendingRead

	// Every broadcastAppend is a numbered round. rounds holds the leader's
	// rounds no quorum has acknowledged yet, oldest first, with their send
	// times; confirmed is the highest round a quorum has acknowledged.
	round     uint64
	rounds    []roundStamp
	confirmed uint64

	// The leader lease (see read): reads need no round before leaseUntil, and
	// only a round numbered leaseRound or later can extend it, so an event
	// that ends the lease is followed by a round sent after it.
	leaseUntil sim.Time
	leaseRound uint64

	// Vote stickiness: until holdUntil this node ignores RequestVote from any
	// candidate but holdFor, the leader whose lease it may be backing (-1
	// after a restart, which forgets whose it was).
	holdFor   int
	holdUntil sim.Time

	// staging accumulates migrate chunks until the Done chunk installs them;
	// stagingStream is the stream ID the staged chunks belong to, so chunks
	// from an aborted earlier stream are discarded instead of merged.
	staging       []nvme.KVPair
	stagingStream uint64

	rng *sim.RNG
}

// roundStamp is when the leader sent a round.
type roundStamp struct {
	round uint64
	sent  sim.Time
}

// progress is what a leader knows about one peer's log, and with it the state
// of the append stream to that peer.
//
// Replicating (probe == 0): every entry is sent once. sendAppend ships
// log[next:] and moves next past it at send time, without waiting for the ack,
// so whatever else goes to the peer meanwhile — the next proposal, a
// read-index round, a heartbeat — carries only entries not sent yet. A success
// ack only ever raises match and next.
//
// Probing (probe != 0): the peer refused a frame — one before it was lost, or
// its log diverges — and named where its log ends or stops matching. One
// catch-up AppendEntries from probe is in flight; until the peer acknowledges
// an index at or past probe-1, further refusals that name probe or later say
// nothing new (they answer frames sent before the catch-up) and are ignored,
// a refusal that names an earlier index moves the probe back, and a catch-up
// that has drawn no answer a heartbeat interval later is sent again by the
// ticker. A lost or refused frame thus costs the gap plus what was in flight,
// once.
type progress struct {
	match uint64 // highest index known to be in the peer's log
	next  uint64 // first index not sent yet
	probe uint64 // first index of the catch-up in flight; 0 when replicating

	probeDue sim.Time // when an unanswered catch-up is sent again
	lastAck  sim.Time // last reply of any kind, for CheckQuorum
	ackRound uint64   // highest round acknowledged
	// snapDue rate-limits catch-up snapshots: while one is in flight there is
	// no point re-shipping the full state every heartbeat.
	snapDue sim.Time
}

func newGroup(c *Cluster, shard, id int, members []int, sm StateMachine) *group {
	g := &group{
		c:            c,
		shard:        shard,
		id:           id,
		votedFor:     -1,
		leader:       -1,
		holdFor:      -1,
		sm:           sm,
		sessions:     map[uint64]uint64{},
		snapSessions: map[uint64]uint64{},
		baseMembers:  append([]int(nil), members...),
		baseEpoch:    1,
		members:      append([]int(nil), members...),
		epoch:        1,
		props:        map[uint64]*pending{},
		peers:        make([]progress, c.opts.Nodes),
		rng:          c.rng.Fork(int64(shard)*1024 + int64(id) + 1),
	}
	g.resetElectionDeadline()
	return g
}

func (g *group) node() *node { return g.c.nodes[g.id] }

func (g *group) lastIndex() uint64 { return g.base + uint64(len(g.log)) }

func (g *group) lastTerm() uint64 {
	if len(g.log) == 0 {
		return g.baseTerm
	}
	return g.log[len(g.log)-1].Term
}

// termAt returns the term of index i, or 0 when i is outside the log.
func (g *group) termAt(i uint64) uint64 {
	if i == g.base {
		return g.baseTerm
	}
	if i < g.base || i > g.lastIndex() {
		return 0
	}
	return g.log[i-g.base-1].Term
}

func (g *group) entryAt(i uint64) *wire.ReplicaEntry { return &g.log[i-g.base-1] }

func (g *group) isMember(id int) bool {
	for _, m := range g.members {
		if m == id {
			return true
		}
	}
	return false
}

func (g *group) quorum() int { return len(g.members)/2 + 1 }

// recomputeConfig re-derives members/epoch from the snapshot config plus the
// latest config entry still in the log — needed after a conflict truncation
// or a snapshot install. It walks the whole log, which is never truncated
// between snapshots, so paths that only append use applyConfig instead.
func (g *group) recomputeConfig() {
	g.endLease()
	g.members = append(g.members[:0], g.baseMembers...)
	g.epoch = g.baseEpoch
	g.configWalked += len(g.log)
	for i := range g.log {
		g.applyConfig(&g.log[i])
	}
}

// applyConfig makes e the current configuration if it is a config entry. The
// latest config entry in the log wins, so applying appended entries in order
// keeps members/epoch equal to what recomputeConfig would derive. A new
// configuration has new quorums, so it ends the lease.
func (g *group) applyConfig(e *wire.ReplicaEntry) {
	if e.Kind != entryConfig {
		return
	}
	g.endLease()
	g.members = g.members[:0]
	for _, m := range e.Members {
		g.members = append(g.members, int(m))
	}
	g.epoch = e.Epoch
}

func (g *group) resetElectionDeadline() {
	jitter := sim.Duration(g.rng.Int63() % int64(electionTimeout))
	g.electionDeadline = g.c.env.Now().Add(electionTimeout + jitter)
}

// tick drives timers: election timeout on followers/candidates; heartbeats,
// unanswered catch-ups and the CheckQuorum rule on leaders.
func (g *group) tick(p *sim.Proc) {
	now := g.c.env.Now()
	switch g.role {
	case roleLeader:
		if now >= g.quorumCheckDue {
			g.quorumCheckDue = now.Add(electionTimeout)
			if !g.hasQuorumContact(now) {
				// CheckQuorum: an isolated leader must stop pretending.
				// Stepping down fails every pending proposal with ErrUnknown
				// within one election timeout, which is what keeps client
				// retry loops (and the simulation) from hanging forever.
				g.stepDown(g.term, -1)
				return
			}
		}
		for _, m := range g.members {
			if pr := &g.peers[m]; m != g.id && pr.probe != 0 && now >= pr.probeDue {
				// The catch-up or its ack was lost.
				g.startProbe(pr, pr.probe)
				g.sendAppend(m, 0)
			}
		}
		if now >= g.heartbeatDue {
			g.broadcastAppend()
		}
	default:
		if now >= g.electionDeadline && g.isMember(g.id) && g.node().running {
			g.startElection(p)
		}
	}
}

func (g *group) hasQuorumContact(now sim.Time) bool {
	contact := 1 // self
	for _, m := range g.members {
		if m == g.id {
			continue
		}
		if now-g.peers[m].lastAck <= sim.Time(electionTimeout) {
			contact++
		}
	}
	return contact >= g.quorum()
}

// --- elections --------------------------------------------------------------

func (g *group) startElection(p *sim.Proc) {
	g.term++
	g.votedFor = g.id
	g.role = roleCandidate
	g.leader = -1
	g.votes = map[int]bool{g.id: true}
	g.resetElectionDeadline()
	g.c.countElection(g.shard)
	if len(g.members) == 1 && g.isMember(g.id) {
		g.becomeLeader(p)
		return
	}
	for _, m := range g.members {
		if m == g.id {
			continue
		}
		g.c.net.sendRequest(g.id, m, &wire.Request{
			ID: g.c.nextMsgID(),
			Op: wire.OpRequestVote,
			Replica: &wire.ReplicaMsg{
				Shard:        uint32(g.shard),
				From:         uint32(g.id),
				Term:         g.term,
				LastLogIndex: g.lastIndex(),
				LastLogTerm:  g.lastTerm(),
			},
		})
	}
}

// handleRequestVote answers a candidate, unless a lease may still be serving
// reads: a leader ignores every candidate while its own lease holds, and any
// other node ignores all but the leader it last heard from for electionTimeout
// after that leader's last AppendEntries (for electionTimeout after a restart,
// all of them). It neither adopts the candidate's term nor answers, so no
// quorum can elect a new leader before the old lease has run out.
func (g *group) handleRequestVote(p *sim.Proc, m *wire.ReplicaMsg) {
	if now := g.c.env.Now(); now < g.leaseUntil || now < g.holdUntil && int(m.From) != g.holdFor {
		return
	}
	if m.Term > g.term {
		g.stepDown(m.Term, -1)
	}
	grant := false
	if m.Term == g.term && (g.votedFor == -1 || g.votedFor == int(m.From)) {
		upToDate := m.LastLogTerm > g.lastTerm() ||
			(m.LastLogTerm == g.lastTerm() && m.LastLogIndex >= g.lastIndex())
		if upToDate {
			grant = true
			g.votedFor = int(m.From)
			g.resetElectionDeadline()
		}
	}
	g.c.net.sendResponse(g.id, int(m.From), &wire.Response{
		ID: g.c.nextMsgID(), Op: wire.OpRequestVote, Status: wire.StatusOK,
		Replica: &wire.ReplicaReply{
			Shard: uint32(g.shard), From: uint32(g.id), Term: g.term, Success: grant,
		},
	})
}

func (g *group) handleVoteReply(p *sim.Proc, r *wire.ReplicaReply) {
	if r.Term > g.term {
		g.stepDown(r.Term, -1)
		return
	}
	if g.role != roleCandidate || r.Term != g.term || !r.Success {
		return
	}
	g.votes[int(r.From)] = true
	count := 0
	for _, m := range g.members {
		if g.votes[m] {
			count++
		}
	}
	if count >= g.quorum() {
		g.becomeLeader(p)
	}
}

func (g *group) becomeLeader(p *sim.Proc) {
	now := g.c.env.Now()
	g.role = roleLeader
	g.leader = g.id
	for i := range g.peers {
		g.peers[i] = progress{next: g.lastIndex() + 1, lastAck: now}
	}
	g.rounds = g.rounds[:0]
	g.endLease()
	g.quorumCheckDue = now.Add(electionTimeout)
	g.c.noteLeader(g.shard, g.id, g.term)
	// A fresh leader cannot commit entries from older terms by counting
	// replicas; the no-op commits the current term and unblocks reads.
	g.appendLocal(p, wire.ReplicaEntry{Term: g.term, Kind: entryNop})
	g.broadcastAppend()
}

// --- log replication --------------------------------------------------------

// appendLocal assigns the next index and appends to the leader's own log.
func (g *group) appendLocal(p *sim.Proc, e wire.ReplicaEntry) uint64 {
	e.Index = g.lastIndex() + 1
	g.log = append(g.log, e)
	g.applyConfig(&e)
	if len(g.members) == 1 && g.isMember(g.id) {
		g.advanceCommit(p)
	}
	return e.Index
}

// broadcastAppend sends AppendEntries to every peer as the next round and
// returns its number. A peer's ack of the round proves it still followed this
// leader when the round arrived, which is what confirms a read-index read and
// extends the lease.
func (g *group) broadcastAppend() uint64 {
	now := g.c.env.Now()
	g.heartbeatDue = now.Add(heartbeatInterval)
	g.round++
	sent := false
	for _, m := range g.members {
		if m != g.id {
			g.sendAppend(m, g.round)
			sent = true
		}
	}
	if sent {
		g.rounds = append(g.rounds, roundStamp{round: g.round, sent: now})
	} else {
		g.confirmed = g.round // a group of one is its own quorum
	}
	return g.round
}

// sendAppend ships every entry not yet sent to the peer — none, for a
// heartbeat or a read-index round on a peer that is up to date — straight from
// the log, and counts it sent (see progress).
func (g *group) sendAppend(to int, round uint64) {
	pr := &g.peers[to]
	if pr.next <= g.base {
		// The peer is behind our snapshot horizon: ship the snapshot itself.
		g.sendSnapshot(to)
		return
	}
	prev := pr.next - 1
	entries := g.log[prev-g.base:]
	pr.next = g.lastIndex() + 1
	g.c.countEntriesSent(len(entries))
	g.c.net.sendRequest(g.id, to, &wire.Request{
		ID: g.c.nextMsgID(),
		Op: wire.OpAppendEntries,
		Replica: &wire.ReplicaMsg{
			Shard:     uint32(g.shard),
			From:      uint32(g.id),
			Term:      g.term,
			PrevIndex: prev,
			PrevTerm:  g.termAt(prev),
			Commit:    g.commit,
			Round:     round,
			Entries:   entries,
		},
	})
}

// startProbe makes the next AppendEntries to the peer a catch-up from index
// from.
func (g *group) startProbe(pr *progress, from uint64) {
	pr.probe, pr.next = from, from
	pr.probeDue = g.c.env.Now().Add(heartbeatInterval)
	g.c.countProbe()
}

// handleAppendEntries is the follower side. The reply goes out as soon as the
// entries are in the log and the commit index is updated, and only then are
// newly committed entries applied: the log is the persistent state and
// applying is replaying it, so what the leader waits for is what is logged —
// a follower that crashes between the two replays the entry after restart.
func (g *group) handleAppendEntries(p *sim.Proc, m *wire.ReplicaMsg) {
	reply := wire.ReplicaReply{Shard: uint32(g.shard), From: uint32(g.id)}
	if m.Term < g.term {
		g.replyAppend(m, &reply) // Success=false, stale leader learns our term
		return
	}
	if m.Term > g.term || g.role != roleFollower {
		g.stepDown(m.Term, int(m.From))
	}
	g.leader = int(m.From)
	g.holdFor, g.holdUntil = g.leader, g.c.env.Now().Add(electionTimeout)
	g.resetElectionDeadline()

	// Log-matching check at (PrevIndex, PrevTerm).
	if m.PrevIndex > g.lastIndex() {
		reply.MatchIndex = g.lastIndex()
		g.replyAppend(m, &reply)
		return
	}
	if m.PrevIndex >= g.base && g.termAt(m.PrevIndex) != m.PrevTerm {
		reply.MatchIndex = max(m.PrevIndex-1, g.base)
		g.replyAppend(m, &reply)
		return
	}

	// Append, skipping entries the snapshot already covers and truncating on
	// the first conflict.
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.Index <= g.base {
			continue
		}
		if e.Index <= g.lastIndex() {
			if g.termAt(e.Index) == e.Term {
				continue
			}
			// The dropped suffix may have held the current config.
			g.log = g.log[:e.Index-g.base-1]
			g.recomputeConfig()
		}
		// The entry's bytes are views into the delivered frame, which goes
		// back to the transport: keep a copy.
		own := *e
		own.Key, own.Value = ownedCopy(e.Key, e.Value)
		g.log = append(g.log, own)
		g.applyConfig(e)
		g.c.countEntryAppended()
	}
	reply.Success = true
	reply.MatchIndex = m.PrevIndex + uint64(len(m.Entries))
	reply.Round = m.Round
	committed := m.Commit > g.commit
	if committed {
		g.commit = min(m.Commit, g.lastIndex())
	}
	g.replyAppend(m, &reply)
	if committed {
		g.applyCommitted(p)
	}
}

func (g *group) replyAppend(m *wire.ReplicaMsg, reply *wire.ReplicaReply) {
	reply.Term = g.term
	g.c.net.sendResponse(g.id, int(m.From), &wire.Response{
		ID: g.c.nextMsgID(), Op: wire.OpAppendEntries, Status: wire.StatusOK,
		Replica: reply,
	})
}

func (g *group) handleAppendReply(p *sim.Proc, r *wire.ReplicaReply) {
	if r.Term > g.term {
		g.stepDown(r.Term, -1)
		return
	}
	if g.role != roleLeader || r.Term != g.term || int(r.From) >= len(g.peers) {
		return
	}
	from := int(r.From)
	pr := &g.peers[from]
	pr.lastAck = g.c.env.Now()
	if !r.Success {
		// The peer's log ends, or stops matching ours, at MatchIndex.
		at := r.MatchIndex + 1
		if pr.probe != 0 && at >= pr.probe {
			return // answers a frame sent before the catch-up in flight
		}
		g.startProbe(pr, at)
		g.sendAppend(from, 0)
		return
	}
	pr.match = max(pr.match, r.MatchIndex)
	pr.next = max(pr.next, r.MatchIndex+1)
	if r.MatchIndex+1 >= pr.probe {
		pr.probe = 0
	}
	pr.ackRound = max(pr.ackRound, r.Round)
	g.confirmRounds()
	g.advanceCommit(p)
	g.serveReads(p)
	// Keep pushing if there is something the follower has not been sent.
	if pr.next <= g.lastIndex() {
		g.sendAppend(from, 0)
	}
}

// advanceCommit moves the commit index to the highest current-term entry
// replicated on a quorum, then applies.
func (g *group) advanceCommit(p *sim.Proc) {
	for n := g.lastIndex(); n > g.commit; n-- {
		if g.termAt(n) != g.term {
			break
		}
		count := 0
		for _, m := range g.members {
			if m == g.id {
				if g.lastIndex() >= n {
					count++
				}
			} else if g.peers[m].match >= n {
				count++
			}
		}
		if count >= g.quorum() {
			g.commit = n
			g.applyCommitted(p)
			break
		}
	}
}

// applyCommitted applies every committed-but-unapplied entry to the state
// machine, resolves client proposals, flips routing on config applies, and
// deduplicates by (client, seq).
//
// Device-backed state machines yield virtual time inside Apply, so this can
// be re-entered from another deliver proc while an apply is in flight. The
// applyBusy guard keeps exactly one drain loop active — the loop re-checks
// the commit index every iteration, so entries committed during a yield are
// drained by the active loop. Without the guard, a concurrent re-entrant
// loop advances g.applied underneath the yielded one, which then resolves
// the wrong pending proposal and strands its proposer forever.
func (g *group) applyCommitted(p *sim.Proc) {
	if g.applyBusy {
		return
	}
	g.applyBusy = true
	defer func() { g.applyBusy = false }()
	for g.applied < g.commit {
		g.applied++
		idx := g.applied // stable across yields even if a crash resets the cursor
		e := *g.entryAt(idx)
		switch e.Kind {
		case entryPut, entryDelete:
			if e.Client != 0 && g.sessions[e.Client] >= e.Seq {
				break // duplicate of an already-applied proposal
			}
			if e.Client != 0 {
				g.sessions[e.Client] = e.Seq
			}
			if err := g.sm.Apply(p, Command{Kind: e.Kind, Key: e.Key, Value: e.Value}); err != nil {
				// State machines in this simulation only fail when their
				// device is down, in which case the node is about to be
				// crashed anyway; surface to the proposal if one waits.
				if pd := g.props[idx]; pd != nil {
					pd.err = err
					pd.ev.Signal()
					delete(g.props, idx)
				}
				continue
			}
		case entryConfig:
			g.c.routeApplied(p, g.shard, &e)
			if !g.isMember(g.id) && g.role == roleLeader {
				// A leader removed by the config it just committed steps
				// down; the remaining members elect among themselves.
				g.stepDown(g.term, -1)
			}
		}
		if pd := g.props[idx]; pd != nil {
			if pd.client == e.Client && pd.seq == e.Seq {
				pd.err = nil
			} else {
				pd.err = ErrUnknown
			}
			pd.ev.Signal()
			delete(g.props, idx)
		}
	}
	g.c.noteCommit(g.shard, g.id)
	// A confirmed read may have been waiting for this drain, and nothing else
	// is due to look at it before the next reply arrives.
	g.serveReads(p)
}

// --- snapshots --------------------------------------------------------------

// sendSnapshot ships the leader's snapshot to a peer that has fallen behind
// the log base, as a single Migrate frame with Round=0 (no coordinator call):
// the ack comes back through handleSnapshotReply, which advances the peer's
// next so post-snapshot entries follow via ordinary AppendEntries. While one
// snapshot is in flight, re-sends to the same peer are suppressed.
func (g *group) sendSnapshot(to int) {
	pr, now := &g.peers[to], g.c.env.Now()
	if now < pr.snapDue {
		return
	}
	pr.snapDue = now.Add(electionTimeout)
	g.c.countSnapshot(g.shard)
	g.c.net.sendRequest(g.id, to, &wire.Request{
		ID:    g.c.nextMsgID(),
		Op:    wire.OpMigrate,
		Pairs: g.snapPairs,
		Replica: &wire.ReplicaMsg{
			Shard:     uint32(g.shard),
			From:      uint32(g.id),
			Term:      g.term,
			SnapIndex: g.base,
			SnapTerm:  g.baseTerm,
			Epoch:     g.baseEpoch,
			Done:      true,
			Sessions:  sessionList(g.snapSessions),
			Stream:    g.c.nextMsgID(),
			Entries: []wire.ReplicaEntry{
				{Kind: entryConfig, Members: memberList(g.baseMembers), Epoch: g.baseEpoch},
			},
		},
	})
}

// handleSnapshotReply is the leader-side ack path for catch-up snapshots
// (Migrate replies whose Round matches no coordinator call). A Success ack
// carries MatchIndex = the installed snapshot base; a refusal carries the
// follower's applied index — applied entries are committed, and a leader's
// log holds every committed entry, so either way MatchIndex is a proven log
// match the leader can resume AppendEntries from.
func (g *group) handleSnapshotReply(p *sim.Proc, r *wire.ReplicaReply) {
	if r.Term > g.term {
		g.stepDown(r.Term, -1)
		return
	}
	if g.role != roleLeader || r.Term != g.term || int(r.From) >= len(g.peers) {
		return
	}
	from := int(r.From)
	pr := &g.peers[from]
	pr.lastAck = g.c.env.Now()
	pr.snapDue = 0
	pr.match = max(pr.match, r.MatchIndex)
	pr.next = max(pr.next, r.MatchIndex+1)
	pr.probe = 0
	g.advanceCommit(p)
	g.serveReads(p)
	if pr.next <= g.lastIndex() {
		g.sendAppend(from, 0)
	}
}

// handleMigrate installs a streamed snapshot chunk. Chunks accumulate in a
// staging area; the Done chunk commits the install: the log resets to the
// snapshot base and the state machine is restored. Used both by elastic
// resharding (streaming a shard to its new owner) and by leaders bringing a
// hopelessly-behind follower back.
func (g *group) handleMigrate(p *sim.Proc, req *wire.Request) {
	m := req.Replica
	reply := &wire.ReplicaReply{
		Shard: uint32(g.shard), From: uint32(g.id), Round: m.Round,
	}
	send := func() {
		reply.Term = g.term // after any stepDown, so the sender trusts the ack
		g.c.net.sendResponse(g.id, int(m.From), &wire.Response{
			ID: g.c.nextMsgID(), Op: wire.OpMigrate, Status: wire.StatusOK,
			Replica: reply,
		})
	}
	if m.Term > g.term {
		g.stepDown(m.Term, -1)
	}
	// A chunk from a different stream means the previous stream aborted
	// mid-flight; its staged pairs must never leak into this install.
	if m.Stream != g.stagingStream {
		g.staging = nil
		g.stagingStream = m.Stream
	}
	// Refuse installs that would rewind an already-longer, already-applied
	// state: the migration coordinator retries elsewhere, and a catch-up
	// leader resumes AppendEntries from our applied index (committed state,
	// so it is a proven log match).
	if m.Done && m.SnapIndex < g.applied {
		g.staging = nil
		reply.MatchIndex = g.applied
		send()
		return
	}
	// Staged pairs outlive this chunk's frame.
	for _, kv := range req.Pairs {
		kv.Key, kv.Value = ownedCopy(kv.Key, kv.Value)
		g.staging = append(g.staging, kv)
	}
	if !m.Done {
		reply.Success = true
		send()
		return
	}
	pairs := g.staging
	g.staging = nil
	if err := g.sm.Restore(p, pairs); err != nil {
		send()
		return
	}
	g.base = m.SnapIndex
	g.baseTerm = m.SnapTerm
	g.log = nil
	g.snapPairs = pairs
	g.snapSessions = map[uint64]uint64{}
	g.sessions = map[uint64]uint64{}
	for _, s := range m.Sessions {
		g.snapSessions[s.Client] = s.Seq
		g.sessions[s.Client] = s.Seq
	}
	if len(m.Entries) > 0 && m.Entries[0].Kind == entryConfig {
		g.baseMembers = g.baseMembers[:0]
		for _, mm := range m.Entries[0].Members {
			g.baseMembers = append(g.baseMembers, int(mm))
		}
		g.baseEpoch = m.Entries[0].Epoch
	}
	g.recomputeConfig()
	g.commit = g.base
	g.applied = g.base
	g.role = roleFollower
	g.resetElectionDeadline()
	reply.Success = true
	reply.MatchIndex = g.base
	send()
}

// --- role changes -----------------------------------------------------------

// stepDown demotes to follower (adopting newTerm if higher) and fails every
// in-flight proposal with the ambiguous ErrUnknown — the entries may yet
// commit under the next leader, and session dedup makes the client retry
// safe either way.
func (g *group) stepDown(newTerm uint64, leader int) {
	if newTerm > g.term {
		g.term = newTerm
		g.votedFor = -1
	}
	g.role = roleFollower
	g.leader = leader
	g.votes = nil
	g.endLease()
	g.failPending(ErrUnknown, &NotLeaderError{Hint: leader})
	g.resetElectionDeadline()
	g.c.noteStepDown(g.shard, g.id)
}

// failPending resolves all waiting proposals with propErr and all waiting
// reads with readErr.
func (g *group) failPending(propErr, readErr error) {
	for idx, pd := range g.props {
		pd.err = propErr
		pd.ev.Signal()
		delete(g.props, idx)
	}
	for _, rd := range g.reads {
		rd.err = readErr
		rd.ev.Signal()
	}
	g.reads = nil
}

// --- client operations ------------------------------------------------------

// propose appends a client command on the leader and returns a pending the
// caller waits on; nil pending with nil error means already done.
func (g *group) propose(p *sim.Proc, e wire.ReplicaEntry) (*pending, error) {
	if g.c.stopped {
		return nil, ErrStopped
	}
	if !g.node().running {
		return nil, ErrDown
	}
	if g.role != roleLeader {
		return nil, &NotLeaderError{Hint: g.leader}
	}
	if e.Client != 0 && g.sessions[e.Client] >= e.Seq {
		return nil, nil // retry of an already-applied proposal: success
	}
	e.Term = g.term
	idx := g.appendLocal(p, e)
	if g.applied >= idx {
		// Single-member group: appendLocal already committed and applied.
		return nil, nil
	}
	pd := &pending{client: e.Client, seq: e.Seq, ev: sim.NewEvent(g.c.env)}
	g.props[idx] = pd
	g.broadcastAppend()
	return pd, nil
}

// read starts a linearizable read at the commit index. While the lease holds
// no other leader can exist, so the read needs no round: it is served at once
// when the leader has applied that far — the pending comes back with no event
// to wait on — and otherwise as soon as it has. Without the lease it is a
// read-index read, waiting for a quorum to acknowledge a round sent after it
// arrived.
func (g *group) read(p *sim.Proc, key []byte) (*pendingRead, error) {
	if g.c.stopped {
		return nil, ErrStopped
	}
	if !g.node().running {
		return nil, ErrDown
	}
	if g.role != roleLeader {
		return nil, &NotLeaderError{Hint: g.leader}
	}
	if g.termAt(g.commit) != g.term {
		// No entry from this term committed yet: the leader cannot prove its
		// commit index is current. The no-op will fix this within a round.
		return nil, ErrNotReady
	}
	rd := &pendingRead{index: g.commit, key: key}
	if g.c.env.Now() < g.leaseUntil {
		g.c.countRead(true)
		if g.applied >= rd.index {
			rd.value, rd.found, rd.err = g.sm.Lookup(p, key)
			return rd, nil
		}
	} else {
		g.c.countRead(false)
		rd.round = g.broadcastAppend()
	}
	rd.ev = sim.NewEvent(g.c.env)
	g.reads = append(g.reads, rd)
	if len(g.members) == 1 && g.isMember(g.id) {
		g.serveReads(p)
	}
	return rd, nil
}

// serveReads completes reads whose round a quorum has acknowledged.
func (g *group) serveReads(p *sim.Proc) {
	if len(g.reads) == 0 || g.role != roleLeader {
		return
	}
	g.serveUpTo(p, g.confirmed)
}

// confirmRounds raises confirmed to the highest round a quorum of members has
// acknowledged (a peer acking round R has seen every round before it, the
// leader itself every round it sent) and extends the lease to that round's
// send time plus electionTimeout − leaseDrift. Every member that acknowledged
// it ignores other candidates until at least electionTimeout after the round
// reached it, so no rival can win a vote before the lease runs out.
func (g *group) confirmRounds() {
	q := uint64(0)
	for _, m := range g.members {
		r := g.round
		if m != g.id {
			r = g.peers[m].ackRound
		}
		if r <= q {
			continue
		}
		acked := 0
		for _, o := range g.members {
			if o == g.id || g.peers[o].ackRound >= r {
				acked++
			}
		}
		if acked >= g.quorum() {
			q = r
		}
	}
	if q <= g.confirmed {
		return
	}
	g.confirmed = q
	n := 0
	for n < len(g.rounds) && g.rounds[n].round <= q {
		n++
	}
	if n == 0 {
		return
	}
	last := g.rounds[n-1]
	g.rounds = g.rounds[:copy(g.rounds, g.rounds[n:])]
	if last.round >= g.leaseRound {
		g.leaseUntil = max(g.leaseUntil, last.sent.Add(electionTimeout-leaseDrift))
	}
}

// endLease ends the leader lease: until a round sent from now on is
// acknowledged by a quorum, reads go through read-index rounds.
func (g *group) endLease() {
	g.leaseUntil = 0
	g.leaseRound = g.round + 1
}

func (g *group) serveUpTo(p *sim.Proc, round uint64) {
	rest := g.reads[:0]
	for _, rd := range g.reads {
		if rd.round > round || g.applied < rd.index {
			rest = append(rest, rd)
			continue
		}
		rd.value, rd.found, rd.err = g.sm.Lookup(p, rd.key)
		rd.ev.Signal()
	}
	g.reads = rest
}

// unsafeRead serves a read from this node's local applied state with no
// quorum confirmation — the deliberately broken mode behind the checker's
// negative control.
func (g *group) unsafeRead(p *sim.Proc, key []byte) ([]byte, bool, error) {
	if !g.node().running {
		return nil, false, ErrDown
	}
	return g.sm.Lookup(p, key)
}

// --- crash / restart --------------------------------------------------------

// crash models a power cut: volatile state vanishes, persistent state stays.
func (g *group) crash() {
	// Pending proposals were already appended to the local log and may have
	// replicated; they can still commit under the next leader, so their fate
	// is ambiguous. Reads have no side effects and may fail definitely.
	g.failPending(ErrUnknown, ErrDown)
	g.role = roleFollower
	g.leader = -1
	g.votes = nil
	g.endLease()
	g.holdFor, g.holdUntil = -1, 0
	g.commit = g.base
	g.applied = g.base
	g.staging = nil
}

// release drops what a stopped group keeps that nothing reads any more: its
// log, snapshot, sessions and staged pairs, and its state machine, which it
// closes first when the machine can close.
func (g *group) release() {
	if sm, ok := g.sm.(interface{ Close() }); ok {
		sm.Close()
	}
	g.sm = nil
	g.log, g.snapPairs, g.staging = nil, nil, nil
	g.sessions, g.snapSessions = nil, nil
}

// restart rebuilds volatile state from the persisted snapshot and log: the
// state machine is restored to the snapshot and the log will be re-applied as
// the commit index re-advances (replay is idempotent thanks to session dedup
// and last-writer-wins semantics).
func (g *group) restart(p *sim.Proc) {
	g.role = roleFollower
	g.leader = -1
	// Whose lease this node backed was volatile: refuse every vote for as long
	// as any lease it may have backed can last.
	g.holdFor, g.holdUntil = -1, g.c.env.Now().Add(electionTimeout)
	g.commit = g.base
	g.applied = g.base
	g.sessions = map[uint64]uint64{}
	for c, s := range g.snapSessions {
		g.sessions[c] = s
	}
	// Restore the state machine to the snapshot; the leader's AppendEntries
	// re-advance commit from there and replay the log through applyCommitted
	// (replay is idempotent, so a device-backed machine that survived with
	// newer state converges rather than corrupts).
	_ = g.sm.Restore(p, g.snapPairs)
	g.recomputeConfig()
	g.resetElectionDeadline()
}

// --- helpers ----------------------------------------------------------------

func memberList(members []int) []uint32 {
	out := make([]uint32, len(members))
	for i, m := range members {
		out[i] = uint32(m)
	}
	return out
}

func sessionList(sessions map[uint64]uint64) []wire.ReplicaSession {
	clients := make([]uint64, 0, len(sessions))
	for c := range sessions {
		clients = append(clients, c)
	}
	slices.Sort(clients)
	out := make([]wire.ReplicaSession, 0, len(clients))
	for _, c := range clients {
		out = append(out, wire.ReplicaSession{Client: c, Seq: sessions[c]})
	}
	return out
}
