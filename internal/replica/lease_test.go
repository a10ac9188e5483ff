package replica

import (
	"testing"
	"time"

	"kvcsd/internal/linearize"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// Tests of the leader lease. A read under the lease costs no frame; each rule
// that keeps it linearizable — vote stickiness, the restart hold, a config
// change ending it, its expiry on a cut-off leader — has a scenario here that
// fails without that rule.

// recordedPut writes key=value through s and records it as client 1.
func recordedPut(t *testing.T, p *sim.Proc, s *Session, rec *linearize.Recorder, key, value string) {
	t.Helper()
	h := rec.Invoke(1, linearize.OpPut, key, value)
	if err := s.Put(p, 0, []byte(key), []byte(value)); err != nil {
		t.Fatalf("Put %s=%s: %v", key, value, err)
	}
	h.OK(p.Env(), false, "")
}

// recordedGet reads key on g itself — no session, no retry — and records it
// as client 2. It reports whether the lease served the read.
func recordedGet(p *sim.Proc, g *group, rec *linearize.Recorder, key string) (lease bool, err error) {
	h := rec.Invoke(2, linearize.OpGet, key, "")
	before := g.c.leaseReads
	rd, err := g.read(p, []byte(key))
	var v []byte
	var found bool
	if err == nil {
		if rd.ev != nil {
			p.Wait(rd.ev)
		}
		v, found, err = rd.value, rd.found, rd.err
	}
	outcome(p.Env(), h, err, found, v)
	return g.c.leaseReads > before, err
}

func checkLinearizable(t *testing.T, rec *linearize.Recorder) {
	t.Helper()
	if res := linearize.Check(rec.History()); len(res.Violations) > 0 {
		t.Fatalf("%d violations\n%s", len(res.Violations), res.Violations[0])
	}
}

// A follower that stops hearing from the leader campaigns again and again
// while the leader keeps its lease through the other follower. Its frames
// still arrive, but neither the leader, whose lease holds, nor the follower
// backing that lease may answer its RequestVote. Only reads run, so the cut
// follower's log is as long as the others' and stickiness alone stands
// between it and their votes.
func TestStickyVoteKeepsCutOffFollowerOut(t *testing.T) {
	run(t, opts3(71), func(p *sim.Proc, c *Cluster) {
		g, followers := leaderOf(t, p, c)
		rec := linearize.NewRecorder(c.env)
		recordedPut(t, p, c.Client(1), rec, "k", "v1")
		cut, backer := c.nodes[followers[0]].groups[0], c.nodes[followers[1]].groups[0]
		term, elections := g.term, c.Elections()
		c.net.lose = func(from, to int) bool { return from == g.id && to == cut.id }
		leaseReads := 0
		for end := p.Now().Add(4 * electionTimeout); p.Now() < end; p.Sleep(500 * time.Microsecond) {
			lease, err := recordedGet(p, g, rec, "k")
			if err != nil {
				t.Fatalf("read on the leader at %v: %v", p.Now(), err)
			}
			if lease {
				leaseReads++
			}
			if backer.term != term || backer.votedFor != g.id || g.term != term || g.role != roleLeader {
				t.Fatalf("at %v the backer is at term %d voting for %d, the leader at term %d in role %d (was all %d for %d)",
					p.Now(), backer.term, backer.votedFor, g.term, g.role, term, g.id)
			}
		}
		if c.Elections() == elections || cut.role != roleCandidate {
			t.Fatalf("the cut follower never campaigned (elections %d -> %d, role %d)", elections, c.Elections(), cut.role)
		}
		if leaseReads == 0 {
			t.Fatalf("no read was served under the lease")
		}
		checkLinearizable(t, rec)
	})
}

// The follower that backs the lease is power-cycled just as a cut-off follower
// campaigns, and the leader loses it too, so only its lease still lets it
// serve. A restarted node has forgotten whose lease it backed and must refuse
// every vote for an election timeout: otherwise the cut-off node wins at once,
// commits a write, and the old leader's lease reads miss it.
func TestRestartedFollowerRefusesVotes(t *testing.T) {
	run(t, opts3(73), func(p *sim.Proc, c *Cluster) {
		g, followers := leaderOf(t, p, c)
		rec := linearize.NewRecorder(c.env)
		s := c.Client(1)
		recordedPut(t, p, s, rec, "k", "v1")
		cut, backer := c.nodes[followers[0]].groups[0], c.nodes[followers[1]].groups[0]
		c.Partition(g.id, cut.id)
		for cut.role != roleCandidate {
			p.Sleep(linkDelay / 4)
		}
		// Its RequestVote is on the wire to the backer.
		c.Crash(backer.id)
		c.Restart(p, backer.id)
		c.Partition(g.id, backer.id)
		var leaseEnd sim.Time
		leaseReads := 0
		reader := c.env.Go("reader", func(q *sim.Proc) {
			for g.role == roleLeader {
				leaseEnd = max(leaseEnd, g.leaseUntil)
				if lease, _ := recordedGet(q, g, rec, "k"); lease {
					leaseReads++
				}
				q.Sleep(linkDelay)
			}
		})
		for cut.role != roleLeader || cut.termAt(cut.commit) != cut.term {
			p.Sleep(linkDelay / 4)
		}
		if elected := p.Now(); elected < leaseEnd {
			t.Errorf("the cut-off node leads from %v, before the old lease ran out at %v", elected, leaseEnd)
		}
		recordedPut(t, p, s, rec, "k", "v2")
		p.Join(reader)
		if leaseReads == 0 {
			t.Fatalf("the old leader served no read under its lease")
		}
		checkLinearizable(t, rec)
	})
}

// A config entry ends the lease, and a round sent before it cannot bring the
// lease back: acknowledged by the old configuration's quorum, it says nothing
// about the new one's. The first round sent after the entry does.
func TestConfigChangeEndsLease(t *testing.T) {
	run(t, Options{Nodes: 4, Shards: 1, ReplicationFactor: 3, Seed: 79}, func(p *sim.Proc, c *Cluster) {
		g, _ := leaderOf(t, p, c)
		if err := c.Client(1).Put(p, 0, []byte("k"), []byte("v1")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if p.Now() >= g.leaseUntil {
			t.Fatalf("no lease after a quorum put")
		}
		g.broadcastAppend() // acknowledged at t0 + 2 link delays
		t0 := p.Now()
		p.Sleep(linkDelay / 2)
		members := append(memberList(g.members), 3)
		if _, err := g.propose(p, wire.ReplicaEntry{Kind: entryConfig, Members: members, Epoch: g.epoch + 1}); err != nil {
			t.Fatalf("propose config: %v", err)
		}
		sent := p.Now() // the proposal's round, acknowledged half a link delay after the first
		if g.leaseUntil != 0 {
			t.Fatalf("lease runs to %v after the config entry was appended", g.leaseUntil)
		}
		p.Sleep(sim.Duration(t0.Add(2*linkDelay+time.Microsecond) - p.Now()))
		if g.confirmed == 0 || g.leaseUntil != 0 {
			t.Fatalf("round before the config entry confirmed (%d), lease to %v, want none", g.confirmed, g.leaseUntil)
		}
		rounds := c.readIndexReads
		rd, err := g.read(p, []byte("k"))
		if err != nil || rd.ev == nil || c.readIndexReads != rounds+1 {
			t.Fatalf("read between the two acks: err=%v, %d read-index reads, want %d", err, c.readIndexReads, rounds+1)
		}
		p.Sleep(sim.Duration(sent.Add(2*linkDelay+time.Microsecond) - p.Now()))
		if want := sent.Add(electionTimeout - leaseDrift); g.leaseUntil != want {
			t.Fatalf("lease runs to %v, want %v: the round sent with the config entry", g.leaseUntil, want)
		}
		p.Wait(rd.ev)
		if rd.err != nil || string(rd.value) != "v1" {
			t.Fatalf("read-index read = %q, %v", rd.value, rd.err)
		}
	})
}

// An isolated leader serves lease reads until send + electionTimeout −
// leaseDrift of the last round a quorum acknowledged, and not a moment
// longer; the first read after waits for a round nobody answers and fails
// definitively once CheckQuorum steps the leader down.
func TestIsolatedLeaderLeaseRunsOut(t *testing.T) {
	run(t, opts3(83), func(p *sim.Proc, c *Cluster) {
		g, _ := leaderOf(t, p, c)
		rec := linearize.NewRecorder(c.env)
		recordedPut(t, p, c.Client(1), rec, "k", "v1")
		t0 := p.Now()
		g.broadcastAppend()
		p.Sleep(2*linkDelay + time.Microsecond)
		leaseEnd := t0.Add(electionTimeout - leaseDrift)
		if g.leaseUntil != leaseEnd {
			t.Fatalf("lease runs to %v, want %v", g.leaseUntil, leaseEnd)
		}
		c.Isolate(g.id)
		for {
			at := p.Now()
			lease, err := recordedGet(p, g, rec, "k")
			if at < leaseEnd {
				if !lease || err != nil || p.Now() != at {
					t.Fatalf("read at %v inside the lease: lease=%v err=%v, took %v", at, lease, err, time.Duration(p.Now()-at))
				}
			} else {
				if lease {
					t.Fatalf("lease read at %v, after the lease ran out at %v", at, leaseEnd)
				}
				if !Definite(err) {
					t.Fatalf("read after the lease: err=%v, want a definite failure", err)
				}
				if p.Now() > leaseEnd.Add(2*electionTimeout) {
					t.Fatalf("read after the lease failed only at %v", p.Now())
				}
				break
			}
			p.Sleep(100 * time.Microsecond)
		}
		checkLinearizable(t, rec)
	})
}

// Without the lease a read costs one read-index round: an empty AppendEntries
// to each follower and its ack. Under the lease it costs nothing.
func TestReadIndexFallbackCostsOneRound(t *testing.T) {
	run(t, opts3(89), func(p *sim.Proc, c *Cluster) {
		g, _ := leaderOf(t, p, c)
		s := c.Client(1)
		if err := s.Put(p, 0, []byte("k"), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		const reads = 16
		get := func() {
			if v, found, err := s.Get(p, 0, []byte("k")); err != nil || !found || string(v) != "v" {
				t.Fatalf("Get = %q,%v,%v", v, found, err)
			}
		}
		f0 := c.FramesSent()
		for i := 0; i < reads; i++ {
			g.endLease()
			get()
		}
		if per := float64(c.FramesSent()-f0) / reads; per != 4 {
			t.Errorf("%.3f frames per read-index get, want 4", per)
		}
		f1 := c.FramesSent()
		for i := 0; i < reads; i++ {
			get()
		}
		if n := c.FramesSent() - f1; n != 0 {
			t.Errorf("%d frames for %d lease gets, want 0", n, reads)
		}
		if c.readIndexReads < reads || c.leaseReads < reads {
			t.Errorf("%d read-index and %d lease reads, want at least %d each", c.readIndexReads, c.leaseReads, reads)
		}
	})
}

// A group of one confirms its own rounds: a read that finds the leader still
// applying earlier entries is served when the apply loop drains.
func TestSingleMemberReadWaitsForApply(t *testing.T) {
	o := slowOpts(97)
	o.Nodes, o.ReplicationFactor = 1, 1
	run(t, o, func(p *sim.Proc, c *Cluster) {
		g, _ := leaderOf(t, p, c)
		for seq := uint64(1); seq <= 2; seq++ {
			c.env.Go("proposer", func(q *sim.Proc) {
				q.Sleep(sim.Duration(seq) * time.Millisecond / 4)
				if _, err := g.propose(q, entryFor(7, seq, []byte("k"), []byte{byte('0' + seq)})); err != nil {
					t.Errorf("propose %d: %v", seq, err)
				}
			})
		}
		p.Sleep(3 * time.Millisecond / 4) // the first apply runs to 1.25 ms
		if g.applied >= g.commit {
			t.Fatalf("setup: applied %d, commit %d: nothing left to apply", g.applied, g.commit)
		}
		rd, err := g.read(p, []byte("k"))
		if err != nil || rd.ev == nil {
			t.Fatalf("read: pending %v, err %v", rd, err)
		}
		c.env.Go("watchdog", func(q *sim.Proc) {
			q.Sleep(electionTimeout)
			if !rd.ev.Fired() {
				t.Errorf("read still waiting %v after the apply loop drained", electionTimeout)
				c.Stop()
			}
		})
		p.Wait(rd.ev)
		if rd.err != nil || string(rd.value) != "2" {
			t.Fatalf("read = %q, %v; want the second write", rd.value, rd.err)
		}
	})
}
