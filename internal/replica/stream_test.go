package replica

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kvcsd/internal/linearize"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// Tests of the append stream itself: what a healthy group sends, what a lost
// or refused frame costs, and what the leader waits for.

func opts3(seed int64) Options {
	return Options{Nodes: 3, Shards: 1, ReplicationFactor: 3, Seed: seed}
}

// leaderOf waits for shard 0's leader and returns its group and its two
// followers' node IDs.
func leaderOf(t *testing.T, p *sim.Proc, c *Cluster) (*group, []int) {
	t.Helper()
	id, err := c.WaitLeader(p, 0)
	if err != nil {
		t.Fatalf("WaitLeader: %v", err)
	}
	var followers []int
	for _, m := range c.Members(0) {
		if m != id {
			followers = append(followers, m)
		}
	}
	return c.nodes[id].groups[0], followers
}

// concurrently runs n client procs to completion.
func concurrently(p *sim.Proc, c *Cluster, n int, fn func(q *sim.Proc, s *Session, w int)) {
	procs := make([]*sim.Proc, n)
	for w := range procs {
		procs[w] = c.env.Go("proposer", func(q *sim.Proc) { fn(q, c.Client(uint64(100+w)), w) })
	}
	p.Join(procs...)
}

// A healthy group sends every entry to every follower once, a put costs the
// protocol's floor of frames — one AppendEntries and one reply per follower —
// and a get under the leader's lease costs none.
func TestStreamSendsEachEntryOnce(t *testing.T) {
	run(t, opts3(41), func(p *sim.Proc, c *Cluster) {
		leaderOf(t, p, c)
		if err := c.Client(1).Put(p, 0, []byte("settle"), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		const procs, each = 8, 64
		f0, s0, a0 := c.FramesSent(), c.entriesSent, c.entriesAppended
		concurrently(p, c, procs, func(q *sim.Proc, s *Session, w int) {
			for i := 0; i < each; i++ {
				if err := s.Put(q, 0, []byte(fmt.Sprintf("k%d-%d", w, i)), []byte("value")); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		})
		f1, sent, appended := c.FramesSent(), c.entriesSent-s0, c.entriesAppended-a0
		if appended < 2*procs*each {
			t.Fatalf("followers appended %d entries of %d puts", appended, procs*each)
		}
		if float64(sent) > 1.05*float64(appended) {
			t.Errorf("%d entries sent for %d appended (%.2fx), want <= 1.05x", sent, appended, float64(sent)/float64(appended))
		}
		if per := float64(f1-f0) / (procs * each); per > 4.5 {
			t.Errorf("%.2f frames per put, want <= 4.5", per)
		}
		concurrently(p, c, procs, func(q *sim.Proc, s *Session, w int) {
			for i := 0; i < each; i++ {
				if _, found, err := s.Get(q, 0, []byte(fmt.Sprintf("k%d-%d", w, i))); err != nil || !found {
					t.Errorf("Get: found=%v err=%v", found, err)
				}
			}
		})
		if n := c.FramesSent() - f1; n != 0 {
			t.Errorf("%d frames for %d lease gets, want 0", n, procs*each)
		}
		if c.probes != 0 {
			t.Errorf("%d catch-ups on a healthy group", c.probes)
		}
	})
}

// propose appends one put on the leader and broadcasts it, as Session.Put
// does, without waiting for it to commit.
func propose(t *testing.T, p *sim.Proc, g *group, seq uint64) *pending {
	t.Helper()
	pd, err := g.propose(p, entryFor(7, seq, []byte(fmt.Sprintf("key-%d", seq)), []byte("value")))
	if err != nil || pd == nil {
		t.Fatalf("propose %d: pending=%v err=%v", seq, pd, err)
	}
	return pd
}

// One AppendEntries lost from the middle of a stream: the next frame is
// refused, the leader sends one catch-up carrying the gap plus what was in
// flight, and the refusals of the other in-flight frames start nothing more.
func TestDroppedAppendCostsTheGapOnce(t *testing.T) {
	run(t, opts3(43), func(p *sim.Proc, c *Cluster) {
		g, followers := leaderOf(t, p, c)
		victim := c.nodes[followers[0]].groups[0]
		p.Wait(propose(t, p, g, 1).ev)
		p.Sleep(linkDelay) // followers learn the commit index on the way

		s0, a0 := c.entriesSent, c.entriesAppended
		c.DropNext(g.id, victim.id, 1)
		t0 := p.Now()
		var pds []*pending
		for seq := uint64(2); seq <= 4; seq++ { // the gap (2), then two frames in flight (3, 4)
			pds = append(pds, propose(t, p, g, seq))
		}
		for _, pd := range pds {
			p.Wait(pd.ev) // the other follower is a quorum
			if pd.err != nil {
				t.Fatalf("put during the gap: %v", pd.err)
			}
		}
		deadline := t0.Add(heartbeatInterval + 2*linkDelay)
		for victim.lastIndex() < g.lastIndex() && p.Now() < deadline {
			p.Sleep(10 * time.Microsecond)
		}
		if victim.lastIndex() != g.lastIndex() {
			t.Fatalf("follower at index %d of %d one heartbeat and two link delays after the drop",
				victim.lastIndex(), g.lastIndex())
		}
		if took := time.Duration(p.Now() - t0); took > 3*linkDelay+10*time.Microsecond {
			t.Errorf("converged after %v, want three link delays (refusal, its reply, the catch-up)", took)
		}
		p.Sleep(4 * linkDelay) // the stale refusals and the catch-up's ack come home
		// Six entries reached the followers; the victim's three were sent twice:
		// once in the lost frame and the two refused ones, once in the catch-up.
		sent, appended := c.entriesSent-s0, c.entriesAppended-a0
		if appended != 6 || sent != 9 {
			t.Errorf("sent %d entries for %d appended, want 9 for 6 (gap 1 + in flight 2 re-sent)", sent, appended)
		}
		if c.probes != 1 {
			t.Errorf("%d catch-ups for one lost frame, want 1", c.probes)
		}
		if pr := g.peers[victim.id]; pr.probe != 0 || pr.match != g.lastIndex() {
			t.Errorf("after the catch-up's ack: probe=%d match=%d, want replicating at %d", pr.probe, pr.match, g.lastIndex())
		}
	})
}

// A success ack that arrives after newer entries were sent must not pull next
// back (the leader would send those entries again), and a refusal that arrives
// while a catch-up from the same index is in flight must not start another.
func TestStaleRepliesDoNotResend(t *testing.T) {
	run(t, opts3(47), func(p *sim.Proc, c *Cluster) {
		g, followers := leaderOf(t, p, c)
		f := followers[0]
		s := c.Client(1)
		for i := 0; i < 8; i++ {
			if err := s.Put(p, 0, []byte{byte(i)}, []byte("v")); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		p.Sleep(2 * linkDelay)
		last := g.lastIndex()
		pr := &g.peers[f]
		if pr.next != last+1 || pr.match != last {
			t.Fatalf("settled follower: next=%d match=%d, want %d and %d", pr.next, pr.match, last+1, last)
		}
		reply := func(success bool, matchIndex uint64) {
			g.handleAppendReply(p, &wire.ReplicaReply{From: uint32(f), Term: g.term, Success: success, MatchIndex: matchIndex})
		}

		sent := c.entriesSent
		reply(true, last-3)
		if pr.next != last+1 || pr.match != last || c.entriesSent != sent {
			t.Fatalf("stale success ack: next=%d match=%d, %d entries re-sent", pr.next, pr.match, c.entriesSent-sent)
		}

		reply(false, last-3) // the follower says its log ends three entries back
		if c.probes != 1 || c.entriesSent != sent+3 || pr.probe != last-2 {
			t.Fatalf("refusal: %d catch-ups, %d entries sent, probe=%d; want 1, 3, %d", c.probes, c.entriesSent-sent, pr.probe, last-2)
		}
		reply(false, last-3) // the refusal of the next frame that was in flight
		reply(false, last-1)
		if c.probes != 1 || c.entriesSent != sent+3 {
			t.Fatalf("stale refusals during the catch-up: %d catch-ups, %d entries sent; want 1 and 3", c.probes, c.entriesSent-sent)
		}
		reply(false, last-5) // news: the log ends earlier still
		if c.probes != 2 || c.entriesSent != sent+3+5 || pr.probe != last-4 {
			t.Fatalf("lower refusal: %d catch-ups, %d entries sent, probe=%d; want 2, 8, %d", c.probes, c.entriesSent-sent, pr.probe, last-4)
		}
		p.Sleep(3 * linkDelay) // the real follower holds every entry and says so
		if pr.probe != 0 || pr.next != last+1 {
			t.Fatalf("after the catch-up's ack: probe=%d next=%d, want 0 and %d", pr.probe, pr.next, last+1)
		}
	})
}

// A catch-up that draws no answer is sent again a heartbeat interval later.
func TestLostCatchUpIsSentAgain(t *testing.T) {
	run(t, opts3(53), func(p *sim.Proc, c *Cluster) {
		g, followers := leaderOf(t, p, c)
		victim := c.nodes[followers[0]].groups[0]
		p.Wait(propose(t, p, g, 1).ev)
		// On the victim's link, entry 2's frame is lost, entry 3's gets through
		// and is refused, and the catch-up that answers the refusal is lost.
		lost := []bool{true, false, true}
		c.net.lose = func(from, to int) bool {
			if from != g.id || to != victim.id || len(lost) == 0 {
				return false
			}
			drop := lost[0]
			lost = lost[1:]
			return drop
		}
		p.Wait(propose(t, p, g, 2).ev)
		p.Wait(propose(t, p, g, 3).ev)
		p.Sleep(linkDelay)
		if c.probes != 1 || len(lost) != 0 || victim.lastIndex() == g.lastIndex() {
			t.Fatalf("setup: %d catch-ups, %d frames still to lose, follower at %d of %d",
				c.probes, len(lost), victim.lastIndex(), g.lastIndex())
		}
		p.Sleep(heartbeatInterval + tickInterval + linkDelay)
		if victim.lastIndex() != g.lastIndex() {
			t.Fatalf("follower at index %d of %d a heartbeat after its catch-up was lost", victim.lastIndex(), g.lastIndex())
		}
		if c.probes != 2 {
			t.Fatalf("%d catch-ups, want the lost one and its repeat", c.probes)
		}
	})
}

// slowSM is a MemKV whose Apply takes a millisecond of virtual time, like a
// device-backed machine: the command is visible to Lookup first, then the
// device write is paid for.
type slowSM struct {
	MemKV
	lastDone sim.Time // when the latest Apply returned
}

func (s *slowSM) Apply(p *sim.Proc, cmd Command) error {
	err := s.MemKV.Apply(p, cmd)
	p.Sleep(time.Millisecond)
	s.lastDone = p.Now()
	return err
}

func slowOpts(seed int64) Options {
	o := opts3(seed)
	o.NewSM = func(int, int) StateMachine { return &slowSM{MemKV: *NewMemKV()} }
	return o
}

// Followers acknowledge what is logged and apply afterwards, so a quorum put
// waits for two link delays and the leader's own apply — not for a follower
// applying the previous entry, whose commit the same frame carried.
func TestFollowersAckBeforeApply(t *testing.T) {
	run(t, slowOpts(59), func(p *sim.Proc, c *Cluster) {
		leaderOf(t, p, c)
		s := c.Client(1)
		want := 2*linkDelay + time.Millisecond
		for i := 0; i < 4; i++ {
			t0 := p.Now()
			if err := s.Put(p, 0, []byte{byte(i)}, []byte("v")); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
			if took := time.Duration(p.Now() - t0); took != want {
				t.Errorf("put %d took %v, want %v (two link delays and the leader's apply)", i, took, want)
			}
		}
	})
}

// A read confirmed by its quorum round while the entries before it are still
// being applied is served when the apply loop drains — not when the next
// reply happens to arrive, which on an idle group is a heartbeat later. The
// loop here is one no reply handler is waiting on: a follower started it, won
// the election while it ran, and commits its own entries into it.
func TestConfirmedReadServedWhenApplyDrains(t *testing.T) {
	run(t, slowOpts(61), func(p *sim.Proc, c *Cluster) {
		g, _ := leaderOf(t, p, c)
		const backlog = 40
		for seq := uint64(1); seq <= backlog; seq++ {
			propose(t, p, g, seq)
		}
		// All of them commit two link delays on; the followers hear of it from
		// the next heartbeat and start on 40 ms of applying.
		p.Sleep(2 * heartbeatInterval)
		c.Crash(g.id)
		id, err := c.WaitLeader(p, 0)
		if err != nil {
			t.Fatalf("WaitLeader: %v", err)
		}
		ng := c.nodes[id].groups[0]
		if !ng.applyBusy || ng.applied >= ng.commit {
			t.Fatalf("setup: new leader is not mid-apply (busy=%v applied=%d commit=%d)", ng.applyBusy, ng.applied, ng.commit)
		}
		rd, err := ng.read(p, []byte("key-1"))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		p.Wait(rd.ev)
		if rd.err != nil || !rd.found {
			t.Fatalf("read: found=%v err=%v", rd.found, rd.err)
		}
		if drained := ng.sm.(*slowSM).lastDone; p.Now() != drained || ng.applyBusy {
			t.Errorf("read served %v after the apply loop drained, want at once", time.Duration(p.Now()-drained))
		}
	})
}

// A leader crashes with next optimistically ahead of what any follower holds:
// entries it appended and sent are lost with their frames. The next leader's
// no-op commits, every acknowledged write is there, and the old leader's
// unreplicated suffix is truncated when it returns.
func TestLeaderCrashWithOptimisticNext(t *testing.T) {
	run(t, opts3(67), func(p *sim.Proc, c *Cluster) {
		g, followers := leaderOf(t, p, c)
		s := c.Client(1)
		for i := 0; i < 5; i++ {
			if err := s.Put(p, 0, []byte{byte(i)}, []byte{byte(i)}); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}
		acked := g.lastIndex()
		for _, f := range followers {
			c.DropNext(g.id, f, 1<<30)
		}
		for seq := uint64(1); seq <= 3; seq++ {
			propose(t, p, g, seq)
		}
		for _, f := range followers {
			if pr := g.peers[f]; pr.next != g.lastIndex()+1 || c.nodes[f].groups[0].lastIndex() != acked {
				t.Fatalf("setup: next=%d with the follower's log at %d, want %d ahead of %d",
					pr.next, c.nodes[f].groups[0].lastIndex(), g.lastIndex()+1, acked)
			}
		}
		old := g.id
		c.Crash(old)
		c.net.lose = nil
		id, err := c.WaitLeader(p, 0)
		if err != nil || id == old {
			t.Fatalf("new leader: %d, %v", id, err)
		}
		ng := c.nodes[id].groups[0]
		if ng.termAt(ng.commit) != ng.term {
			t.Fatalf("new leader's no-op is not committed")
		}
		for i := 0; i < 5; i++ {
			v, found, err := s.Get(p, 0, []byte{byte(i)})
			if err != nil || !found || !bytes.Equal(v, []byte{byte(i)}) {
				t.Fatalf("acknowledged write %d after failover: %q,%v,%v", i, v, found, err)
			}
		}
		c.Restart(p, old)
		if err := s.Put(p, 0, []byte("after"), []byte("restart")); err != nil {
			t.Fatalf("Put after restart: %v", err)
		}
		p.Sleep(heartbeatInterval + 4*linkDelay)
		if g.lastIndex() != ng.lastIndex() || g.termAt(acked+1) != ng.termAt(acked+1) {
			t.Fatalf("old leader's log: last=%d term@%d=%d, want the new leader's %d and %d",
				g.lastIndex(), acked+1, g.termAt(acked+1), ng.lastIndex(), ng.termAt(acked+1))
		}
	})
}

// Lossy-link campaign: every k-th frame on one directed link is lost for
// 5–15 ms while three clients write, read and delete a small key set; every
// history must be linearizable. It is its own test rather than a nemesis kind
// of chaos.RunCluster, whose 100 seeded scenarios would all be reshuffled by
// one more kind.
func TestLossyLinkLinearizable(t *testing.T) {
	const scenarios = 40
	root := sim.NewRNG(0x10551)
	var probes, dropped, unknown int64
	for i := 0; i < scenarios; i++ {
		seed := root.Int63()
		env := sim.NewEnv()
		c := New(env, Options{Nodes: 3, Shards: 1, ReplicationFactor: 3, Seed: seed, RetryAttempts: 6})
		rec := linearize.NewRecorder(env)
		rng := sim.NewRNG(seed).Fork(0x1055)
		env.Go("scenario", func(p *sim.Proc) {
			defer c.Stop()
			var clients []*sim.Proc
			for cl := 0; cl < 3; cl++ {
				id, crng := uint64(cl+1), rng.Fork(int64(cl+1))
				clients = append(clients, env.Go("client", func(cp *sim.Proc) { lossyClient(cp, c, rec, id, crng) }))
			}
			p.Sleep(sim.Duration(1+rng.Intn(4)) * time.Millisecond)
			leader, err := c.WaitLeader(p, 0)
			if err != nil {
				t.Errorf("scenario %d: %v", i, err)
				return
			}
			// Lose the leader's frames to one follower, or that follower's
			// replies, so both entries and acks go missing across scenarios.
			from, to := leader, (leader+1+rng.Intn(2))%3
			if rng.Intn(2) == 0 {
				from, to = to, from
			}
			k, seen := 2+rng.Intn(3), 0
			c.net.lose = func(f, t int) bool {
				if f != from || t != to {
					return false
				}
				seen++
				return seen%k == 0
			}
			p.Sleep(sim.Duration(5+rng.Intn(11)) * time.Millisecond)
			c.net.lose = nil
			p.Join(clients...)
		})
		env.Run()
		history := rec.History()
		for _, op := range history {
			if op.Outcome == linearize.OutcomeUnknown {
				unknown++
			}
		}
		if res := linearize.Check(history); len(res.Violations) > 0 {
			t.Fatalf("scenario %d (seed %d): %d violations\n%s", i, seed, len(res.Violations), res.Violations[0])
		}
		probes += c.probes
		dropped += c.FramesDropped()
	}
	if dropped == 0 || probes == 0 {
		t.Fatalf("campaign lost %d frames and started %d catch-ups: the nemesis is not biting", dropped, probes)
	}
	t.Logf("%d scenarios: %d frames lost, %d catch-ups, %d ambiguous outcomes", scenarios, dropped, probes, unknown)
}

// outcome completes a recorded operation: OK, failed when err proves it did
// not take effect, ambiguous otherwise.
func outcome(env *sim.Env, h *linearize.Handle, err error, found bool, v []byte) {
	switch {
	case err == nil:
		h.OK(env, found, string(v))
	case Definite(err):
		h.Failed(env)
	default:
		h.Unknown(env)
	}
}

func lossyClient(p *sim.Proc, c *Cluster, rec *linearize.Recorder, id uint64, rng *sim.RNG) {
	env, s := p.Env(), c.Client(id)
	for i := 0; i < 16; i++ {
		p.Sleep(sim.Duration(rng.Intn(int(2 * time.Millisecond))))
		key := fmt.Sprintf("key-%02d", rng.Intn(6))
		switch draw := rng.Intn(100); {
		case draw < 45:
			value := fmt.Sprintf("c%d-%d", id, i)
			h := rec.Invoke(id, linearize.OpPut, key, value)
			outcome(env, h, s.Put(p, 0, []byte(key), []byte(value)), false, nil)
		case draw < 60:
			h := rec.Invoke(id, linearize.OpDelete, key, "")
			outcome(env, h, s.Delete(p, 0, []byte(key)), false, nil)
		default:
			h := rec.Invoke(id, linearize.OpGet, key, "")
			v, found, err := s.Get(p, 0, []byte(key))
			outcome(env, h, err, found, v)
		}
	}
}

// closingSM is a slowSM that counts the commands it applies and its Close
// calls, and fails a test that calls it after Close.
type closingSM struct {
	slowSM
	t               *testing.T
	applied, closed int
}

func (s *closingSM) Apply(p *sim.Proc, cmd Command) error {
	if s.closed > 0 {
		s.t.Error("Apply after Close")
	}
	s.applied++
	return s.slowSM.Apply(p, cmd)
}

func (s *closingSM) Close() { s.closed++ }

// TestStopReleasesAfterApplies: Stop with a follower's apply in flight lets
// the apply loop drain as before — every entry it had committed reaches the
// machine — and only then releases the cluster: every group's log, snapshot
// and sessions go, and every machine is closed once. Stop charges no virtual
// time.
func TestStopReleasesAfterApplies(t *testing.T) {
	var sms []*closingSM
	opts := opts3(73)
	opts.NewSM = func(int, int) StateMachine {
		sm := &closingSM{slowSM: slowSM{MemKV: *NewMemKV()}, t: t}
		sms = append(sms, sm)
		return sm
	}
	run(t, opts, func(p *sim.Proc, c *Cluster) {
		_, followers := leaderOf(t, p, c)
		s := c.Client(1)
		for i := 0; i < 4; i++ {
			if err := s.Put(p, 0, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		g := c.nodes[followers[0]].groups[0]
		for !g.applyBusy {
			p.Sleep(10 * time.Microsecond)
		}
		puts := 0 // put entries the follower has committed
		for i := g.base + 1; i <= g.commit; i++ {
			if g.entryAt(i).Kind == entryPut {
				puts++
			}
		}
		sm := g.sm.(*closingSM)
		t0 := p.Now()
		c.Stop()
		if p.Now() != t0 {
			t.Errorf("Stop took %v of virtual time", time.Duration(p.Now()-t0))
		}
		if g.log == nil || sm.closed != 0 {
			t.Fatal("the cluster released its groups with an apply in flight")
		}
		for g.applyBusy {
			p.Sleep(10 * time.Microsecond)
		}
		if sm.applied != puts {
			t.Errorf("the follower applied %d puts, want the %d it had committed at the stop", sm.applied, puts)
		}
		for _, n := range c.nodes {
			if g := n.groups[0]; g.log != nil || g.sm != nil || g.sessions != nil {
				t.Errorf("node %d kept its log (%d entries), machine or sessions after the stop", n.id, len(g.log))
			}
		}
		for i, sm := range sms {
			if sm.closed != 1 {
				t.Errorf("machine %d closed %d times, want once", i, sm.closed)
			}
		}
	})
}
