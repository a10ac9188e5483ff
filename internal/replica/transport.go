package replica

import (
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// Local aliases for the wire-level entry kinds, so group logic reads cleanly.
const (
	entryNop    = wire.EntryNop
	entryPut    = wire.EntryPut
	entryDelete = wire.EntryDelete
	entryConfig = wire.EntryConfig
)

// transport moves consensus frames between nodes over simulated links. Every
// message is encoded to a real wire frame on send and decoded on delivery, so
// the bytes counted here are the bytes a physical deployment would move, and
// a frame a partition drops is a frame the protocol never saw.
//
// # Who owns a consensus frame
//
// A frame is encoded into a buffer the transport lends, carried by one
// resident delivery proc — sleep the link delay, decode into that proc's
// scratch, run the handler — and the buffer goes back to the transport when
// the handler returns. Everything a handler is given (the request or reply,
// its entries, the key, value and pair bytes they view) is therefore valid
// until that handler returns, across any virtual time it spends applying, and
// not after: what a group keeps — a log entry, a staged snapshot pair, a
// migrate call's reply — it copies.
type transport struct {
	c *Cluster

	// cut[from*nodes+to] marks a directed link a partition currently severs.
	cut []bool
	// lose, when set, is asked about every frame a link accepts and loses the
	// ones it answers true for: the fault hook behind DropNext.
	lose func(from, to int) bool

	procs *sim.ResidentProcs[delivery]
	// free holds the frame buffers not on a link.
	free [][]byte

	framesSent    int64
	framesDropped int64
	bytesSent     int64
}

// delivery is the state of one delivery proc: the frame it carries and the
// structs that frame is decoded into.
type delivery struct {
	from, to int
	frame    []byte
	scratch  wire.DecodeScratch
}

// frameReserve is the capacity of a fresh frame buffer: room for a heartbeat,
// a vote or an AppendEntries with a few small entries without growing.
const frameReserve = 1 << 10

func newTransport(c *Cluster, nodes int) *transport {
	t := &transport{c: c, cut: make([]bool, nodes*nodes)}
	t.procs = sim.NewResidentProcs(c.env, "replica:net", t.carry)
	return t
}

func (t *transport) sever(a, b int) {
	n := len(t.c.nodes)
	t.cut[a*n+b], t.cut[b*n+a] = true, true
}

func (t *transport) heal() { clear(t.cut) }

func (t *transport) severed(from, to int) bool { return t.cut[from*len(t.c.nodes)+to] }

func (t *transport) buffer() []byte {
	if n := len(t.free); n > 0 {
		b := t.free[n-1]
		t.free = t.free[:n-1]
		return b
	}
	return make([]byte, 0, frameReserve)
}

func (t *transport) recycle(frame []byte) {
	if cap(frame) <= wire.MaxKeptBuffer {
		wire.Poison(frame)
		t.free = append(t.free, frame[:0])
	}
}

// sendRequest frames and ships a consensus request from node `from` to node
// `to`; delivery happens one link delay later unless the link is severed or
// the target is down at delivery time. Encoding is synchronous: req and all it
// references are the caller's again when sendRequest returns.
func (t *transport) sendRequest(from, to int, req *wire.Request) {
	frame, err := wire.AppendRequestFrame(t.buffer(), req)
	if err != nil {
		// Larger than any frame a link carries: lost like a dropped frame.
		t.framesDropped++
		t.recycle(frame)
		return
	}
	t.ship(from, to, frame)
}

// sendResponse frames and ships a consensus reply.
func (t *transport) sendResponse(from, to int, resp *wire.Response) {
	t.ship(from, to, wire.AppendResponseFrames(t.buffer(), resp, 0))
}

func (t *transport) ship(from, to int, frame []byte) {
	c := t.c
	if c.stopped || from == to || to < 0 || to >= len(c.nodes) {
		t.recycle(frame)
		return
	}
	if t.severed(from, to) || !c.nodes[from].running || (t.lose != nil && t.lose(from, to)) {
		t.framesDropped++
		t.recycle(frame)
		return
	}
	t.framesSent++
	t.bytesSent += int64(len(frame))
	if c.gauges != nil {
		c.gauges.framesSent.Set(float64(t.framesSent))
		c.gauges.bytesSent.Set(float64(t.bytesSent))
	}
	d := t.procs.Dispatch()
	d.from, d.to, d.frame = from, to, frame
}

// carry is a delivery proc's body: one frame across its link.
func (t *transport) carry(p *sim.Proc, d *delivery) {
	p.Sleep(linkDelay)
	c := t.c
	if c.stopped || t.severed(d.from, d.to) || !c.nodes[d.to].running {
		t.framesDropped++
	} else {
		c.enter()
		c.nodes[d.to].deliver(p, d.frame, &d.scratch)
		c.leave()
	}
	t.recycle(d.frame)
	d.frame = nil
}

// deliver decodes one frame on the receiving node and dispatches it to the
// shard group it names. Malformed frames are dropped, exactly as a gateway
// would drop them. The frame is parsed where it lies and decoded into sc (see
// "Who owns a consensus frame").
func (n *node) deliver(p *sim.Proc, frame []byte, sc *wire.DecodeScratch) {
	h, payload, err := wire.ParseFrame(frame)
	if err != nil {
		n.c.net.framesDropped++
		return
	}
	switch h.Kind {
	case wire.KindRequest:
		req, err := sc.DecodeRequest(h, payload)
		if err != nil || req.Replica == nil {
			n.c.net.framesDropped++
			return
		}
		g := n.group(int(req.Replica.Shard))
		if g == nil {
			return
		}
		switch req.Op {
		case wire.OpRequestVote:
			g.handleRequestVote(p, req.Replica)
		case wire.OpAppendEntries:
			g.handleAppendEntries(p, req.Replica)
		case wire.OpMigrate:
			g.handleMigrate(p, req)
		}
	case wire.KindResponse:
		resp, err := sc.DecodeResponse(h, payload)
		if err != nil || resp.Replica == nil {
			n.c.net.framesDropped++
			return
		}
		g := n.group(int(resp.Replica.Shard))
		if g == nil {
			return
		}
		switch resp.Op {
		case wire.OpRequestVote:
			g.handleVoteReply(p, resp.Replica)
		case wire.OpAppendEntries:
			g.handleAppendReply(p, resp.Replica)
		case wire.OpMigrate:
			// Coordinator-issued chunks carry a registered call (Round =
			// msgID); everything else is a leader catch-up snapshot ack.
			if !n.c.resolveCall(resp.Replica) {
				g.handleSnapshotReply(p, resp.Replica)
			}
		}
	}
}
