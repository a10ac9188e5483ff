package replica

import (
	"errors"
	"fmt"
	"slices"

	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// ErrMigrate reports a resharding step that could not complete (target
// unreachable, leader lost, or install refused). The shard stays on its old
// owners; MoveShard can simply be retried.
var ErrMigrate = errors.New("replica: migration failed")

// migrateChunkPairs is how many pairs ride in one Migrate frame.
const migrateChunkPairs = 128

// call is an in-flight migrate RPC: the coordinator waits on ev until the
// ack arrives or the timeout proc fires.
type call struct {
	ev    *sim.Event
	reply wire.ReplicaReply
	err   error
}

// resolveCall completes the migrate RPC the reply's Round names, reporting
// whether a registered call claimed the reply (leader catch-up snapshots send
// with Round=0 and no call; their acks route to handleSnapshotReply instead).
func (c *Cluster) resolveCall(r *wire.ReplicaReply) bool {
	cl := c.calls[r.Round]
	if cl == nil {
		return false
	}
	delete(c.calls, r.Round)
	cl.reply = *r // r is the delivery's scratch: the coordinator reads a copy
	cl.ev.Signal()
	return true
}

// rpcMigrate ships one migrate frame from coordinator-on-node `from` to
// node `to` and waits for the ack, with a virtual-time timeout so a crashed
// target cannot hang the coordinator (or deadlock the simulation).
func (c *Cluster) rpcMigrate(p *sim.Proc, from, to int, req *wire.Request) (*wire.ReplicaReply, error) {
	id := c.nextMsgID()
	req.ID = id
	req.Replica.Round = id
	cl := &call{ev: sim.NewEvent(c.env)}
	c.calls[id] = cl
	c.net.sendRequest(from, to, req)
	c.env.Go(fmt.Sprintf("replica:migrate-timeout:%d", id), func(tp *sim.Proc) {
		tp.Sleep(5 * electionTimeout)
		if pending := c.calls[id]; pending == cl {
			delete(c.calls, id)
			cl.err = fmt.Errorf("%w: chunk ack timeout", ErrMigrate)
			cl.ev.Signal()
		}
	})
	p.Wait(cl.ev)
	if cl.err != nil {
		return nil, cl.err
	}
	return &cl.reply, nil
}

// MoveShard reshards: it streams the shard's state to node `to` over Migrate
// frames, then runs two single-server config changes — add `to`, remove
// `from` — so that every adjacent config pair shares a quorum. The routing
// table flips atomically when each config record is applied (epoch bump).
// On error the cluster is left in a safe config: either the old one, or the
// intermediate one that includes both nodes.
func (c *Cluster) MoveShard(p *sim.Proc, shard, from, to int) error {
	if c.stopped {
		return ErrStopped
	}
	if to < 0 || to >= len(c.nodes) || !c.nodes[to].running {
		return fmt.Errorf("%w: target node %d down", ErrMigrate, to)
	}
	leaderID, err := c.WaitLeader(p, shard)
	if err != nil {
		return fmt.Errorf("%w: no leader for shard %d", ErrMigrate, shard)
	}
	g := c.nodes[leaderID].groups[shard]
	if slices.Contains(g.members, to) {
		return c.removeMember(p, shard, from)
	}

	// Snapshot the leader's applied state and stream it to the new owner.
	c.enter()
	pairs, err := g.sm.Snapshot(p)
	snapIndex, snapTerm := g.applied, g.termAt(g.applied)
	sessions := sessionList(g.sessions)
	c.leave()
	if err != nil {
		return fmt.Errorf("%w: snapshot: %v", ErrMigrate, err)
	}
	baseCfg := wire.ReplicaEntry{Kind: entryConfig, Members: memberList(g.members), Epoch: g.epoch}
	stream := c.nextMsgID()
	c.countMigration()
	for off := 0; ; off += migrateChunkPairs {
		end := off + migrateChunkPairs
		done := end >= len(pairs)
		if end > len(pairs) {
			end = len(pairs)
		}
		var chunk []nvme.KVPair
		if off < len(pairs) {
			chunk = pairs[off:end]
		}
		msg := &wire.ReplicaMsg{
			Shard:  uint32(shard),
			From:   uint32(leaderID),
			Term:   g.term,
			Done:   done,
			Stream: stream,
		}
		if done {
			msg.SnapIndex = snapIndex
			msg.SnapTerm = snapTerm
			msg.Epoch = g.epoch
			msg.Sessions = sessions
			msg.Entries = []wire.ReplicaEntry{baseCfg}
		}
		var reply *wire.ReplicaReply
		var lastErr error
		for attempt := 0; attempt < 3; attempt++ {
			reply, lastErr = c.rpcMigrate(p, leaderID, to, &wire.Request{
				Op: wire.OpMigrate, Pairs: chunk,
				Replica: cloneMsg(msg),
			})
			if lastErr == nil {
				break
			}
		}
		if lastErr != nil {
			return lastErr
		}
		if !reply.Success {
			return fmt.Errorf("%w: node %d refused install", ErrMigrate, to)
		}
		if done {
			break
		}
	}

	// Config change 1: add the new owner. It catches up from its snapshot
	// base via ordinary AppendEntries once the leader starts including it.
	members := append(memberList(g.members), uint32(to))
	if err := c.proposeConfig(p, shard, members); err != nil {
		return err
	}
	// Config change 2: retire the old owner.
	return c.removeMember(p, shard, from)
}

// removeMember proposes the config without `from`; from == -1 is a no-op.
func (c *Cluster) removeMember(p *sim.Proc, shard, from int) error {
	if from < 0 {
		return nil
	}
	leaderID, err := c.WaitLeader(p, shard)
	if err != nil {
		return fmt.Errorf("%w: no leader for shard %d", ErrMigrate, shard)
	}
	g := c.nodes[leaderID].groups[shard]
	if !slices.Contains(g.members, from) {
		return nil
	}
	var members []uint32
	for _, m := range g.members {
		if m != from {
			members = append(members, uint32(m))
		}
	}
	if len(members) == 0 {
		return fmt.Errorf("%w: refusing to empty shard %d", ErrMigrate, shard)
	}
	return c.proposeConfig(p, shard, members)
}

// proposeConfig replicates one config record and waits for it to commit,
// retrying across leader changes. The entry carries the next epoch; routing
// flips when it applies.
func (c *Cluster) proposeConfig(p *sim.Proc, shard int, members []uint32) error {
	session := c.Client(0x436F6E66<<16 | uint64(shard) + 1) // "Conf"
	var lastErr error = ErrNoLeader
	for attempt := 0; attempt < 40; attempt++ {
		if c.stopped {
			return ErrStopped
		}
		leaderID, err := c.WaitLeader(p, shard)
		if err != nil {
			return fmt.Errorf("%w: no leader for shard %d", ErrMigrate, shard)
		}
		g := c.nodes[leaderID].groups[shard]
		if sameMembers(g.members, members) {
			return nil // already in effect (e.g. committed before a retry)
		}
		session.seq++
		c.enter()
		pd, err := g.propose(p, wire.ReplicaEntry{
			Kind:    entryConfig,
			Client:  session.id,
			Seq:     session.seq,
			Members: members,
			Epoch:   g.epoch + 1,
		})
		c.leave()
		if err == nil && pd == nil {
			return nil
		}
		if err == nil {
			p.Wait(pd.ev)
			err = pd.err
		}
		if err == nil {
			return nil
		}
		lastErr = err
		if err == ErrStopped {
			return err
		}
		p.Sleep(heartbeatInterval * sim.Duration(1+attempt/4))
	}
	return fmt.Errorf("%w: config change: %v", ErrMigrate, lastErr)
}

func (c *Cluster) countMigration() {
	if c.gauges != nil {
		c.gauges.migrations.Add(1)
	}
}

func cloneMsg(m *wire.ReplicaMsg) *wire.ReplicaMsg {
	cp := *m
	return &cp
}

func sameMembers(have []int, want []uint32) bool {
	if len(have) != len(want) {
		return false
	}
	for _, w := range want {
		if !slices.Contains(have, int(w)) {
			return false
		}
	}
	return true
}
