package replica

import (
	"fmt"

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
type transport struct {
	c     *Cluster
	delay sim.Duration

	// blocked holds directed (from, to) pairs a partition currently severs.
	blocked map[[2]int]bool

	// procNames[from*nodes+to] names the delivery proc of a frame on that
	// link; built once, because ship runs for every frame.
	procNames []string

	framesSent    int64
	framesDropped int64
	bytesSent     int64
}

func newTransport(c *Cluster, delay sim.Duration, nodes int) *transport {
	t := &transport{c: c, delay: delay, blocked: map[[2]int]bool{}, procNames: make([]string, nodes*nodes)}
	for from := 0; from < nodes; from++ {
		for to := 0; to < nodes; to++ {
			t.procNames[from*nodes+to] = fmt.Sprintf("replica:net:%d->%d", from, to)
		}
	}
	return t
}

func (t *transport) cut(a, b int) {
	t.blocked[[2]int{a, b}] = true
	t.blocked[[2]int{b, a}] = true
}

func (t *transport) heal() { t.blocked = map[[2]int]bool{} }

func (t *transport) severed(from, to int) bool { return t.blocked[[2]int{from, to}] }

// sendRequest frames and ships a consensus request from node `from` to node
// `to`; delivery happens one link delay later unless the link is severed or
// the target is down at delivery time.
func (t *transport) sendRequest(from, to int, req *wire.Request) {
	frame, err := wire.AppendRequestFrame(nil, req)
	if err != nil {
		// Larger than any frame a link carries: lost like a dropped frame.
		t.framesDropped++
		return
	}
	t.ship(from, to, frame)
}

// sendResponse frames and ships a consensus reply.
func (t *transport) sendResponse(from, to int, resp *wire.Response) {
	t.ship(from, to, wire.AppendResponseFrames(nil, resp, 0))
}

func (t *transport) ship(from, to int, frame []byte) {
	c := t.c
	if c.stopped || from == to || to < 0 || to >= len(c.nodes) {
		return
	}
	if t.severed(from, to) || !c.nodes[from].running {
		t.framesDropped++
		return
	}
	t.framesSent++
	t.bytesSent += int64(len(frame))
	c.env.Go(t.procNames[from*len(c.nodes)+to], func(p *sim.Proc) {
		p.Sleep(t.delay)
		if c.stopped || t.severed(from, to) || !c.nodes[to].running {
			t.framesDropped++
			return
		}
		c.nodes[to].deliver(p, frame)
	})
}

// deliver decodes one frame on the receiving node and dispatches it to the
// shard group it names. Malformed frames are dropped, exactly as a gateway
// would drop them. The frame is parsed where it lies: log entries and snapshot
// pairs the group keeps are views into it, and a shipped frame is never
// written again.
func (n *node) deliver(p *sim.Proc, frame []byte) {
	h, payload, err := wire.ParseFrame(frame)
	if err != nil {
		n.c.net.framesDropped++
		return
	}
	switch h.Kind {
	case wire.KindRequest:
		req, err := wire.DecodeRequest(h, payload)
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
		resp, err := wire.DecodeResponse(h, payload)
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
