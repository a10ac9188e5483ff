package replica

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// run drives fn inside a fresh simulation with a cluster built from opts,
// stopping the cluster when fn returns so the env drains cleanly.
func run(t *testing.T, opts Options, fn func(p *sim.Proc, c *Cluster)) {
	t.Helper()
	env := sim.NewEnv()
	c := New(env, opts)
	env.Go("test", func(p *sim.Proc) {
		defer c.Stop()
		fn(p, c)
	})
	env.Run()
}

func TestElectionAndReplication(t *testing.T) {
	run(t, Options{Nodes: 3, Shards: 1, ReplicationFactor: 3, Seed: 1}, func(p *sim.Proc, c *Cluster) {
		leader, err := c.WaitLeader(p, 0)
		if err != nil {
			t.Fatalf("WaitLeader: %v", err)
		}
		if leader < 0 || leader > 2 {
			t.Fatalf("bad leader %d", leader)
		}
		s := c.Client(1)
		if err := s.Put(p, 0, []byte("k"), []byte("v1")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		v, found, err := s.Get(p, 0, []byte("k"))
		if err != nil || !found || !bytes.Equal(v, []byte("v1")) {
			t.Fatalf("Get = %q,%v,%v", v, found, err)
		}
		if err := s.Delete(p, 0, []byte("k")); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, found, _ := s.Get(p, 0, []byte("k")); found {
			t.Fatalf("key survived delete")
		}
		// The write replicated to a quorum; check the followers actually hold
		// the entries by killing the leader and reading from the survivors.
		c.Crash(leader)
		if err := s.Put(p, 0, []byte("k2"), []byte("v2")); err != nil {
			t.Fatalf("Put after leader crash: %v", err)
		}
		v, found, err = s.Get(p, 0, []byte("k2"))
		if err != nil || !found || !bytes.Equal(v, []byte("v2")) {
			t.Fatalf("Get after failover = %q,%v,%v", v, found, err)
		}
	})
}

func TestDeterministicElections(t *testing.T) {
	outcome := func(seed int64) string {
		var s string
		run(t, Options{Nodes: 5, Shards: 2, ReplicationFactor: 3, Seed: seed}, func(p *sim.Proc, c *Cluster) {
			l0, err0 := c.WaitLeader(p, 0)
			l1, err1 := c.WaitLeader(p, 1)
			s = fmt.Sprintf("%d/%v %d/%v elections=%d at=%v", l0, err0, l1, err1, c.Elections(), p.Now())
		})
		return s
	}
	a, b := outcome(7), outcome(7)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
}

func TestLeaderCrashFailover(t *testing.T) {
	run(t, Options{Nodes: 3, Shards: 1, ReplicationFactor: 3, Seed: 3}, func(p *sim.Proc, c *Cluster) {
		s := c.Client(1)
		for i := 0; i < 5; i++ {
			if err := s.Put(p, 0, []byte{byte(i)}, []byte{byte(i)}); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}
		old, _ := c.WaitLeader(p, 0)
		c.Crash(old)
		next, err := c.WaitLeader(p, 0)
		if err != nil {
			t.Fatalf("no new leader: %v", err)
		}
		if next == old {
			t.Fatalf("crashed node still leading")
		}
		for i := 0; i < 5; i++ {
			v, found, err := s.Get(p, 0, []byte{byte(i)})
			if err != nil || !found || !bytes.Equal(v, []byte{byte(i)}) {
				t.Fatalf("lost key %d after failover: %q,%v,%v", i, v, found, err)
			}
		}
		// Bring the old leader back; it must catch up, not corrupt.
		c.Restart(p, old)
		if err := s.Put(p, 0, []byte("after"), []byte("restart")); err != nil {
			t.Fatalf("Put after restart: %v", err)
		}
	})
}

func TestIsolatedLeaderStepsDown(t *testing.T) {
	run(t, Options{Nodes: 3, Shards: 1, ReplicationFactor: 3, Seed: 5}, func(p *sim.Proc, c *Cluster) {
		s := c.Client(1)
		if err := s.Put(p, 0, []byte("k"), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		old, _ := c.WaitLeader(p, 0)
		c.Isolate(old)
		// The majority side elects a new leader and keeps accepting writes.
		if err := s.Put(p, 0, []byte("k"), []byte("v2")); err != nil {
			t.Fatalf("Put during partition: %v", err)
		}
		next, err := c.WaitLeader(p, 0)
		if err != nil || next == old {
			t.Fatalf("majority did not elect around isolated leader: %d, %v", next, err)
		}
		// CheckQuorum: the isolated node must have stepped down by now.
		if g := c.nodes[old].groups[0]; g.role == roleLeader {
			t.Fatalf("isolated node still thinks it leads")
		}
		c.Heal()
		v, found, err := s.Get(p, 0, []byte("k"))
		if err != nil || !found || !bytes.Equal(v, []byte("v2")) {
			t.Fatalf("Get after heal = %q,%v,%v", v, found, err)
		}
	})
}

func TestRetryAfterUnknownIsExactlyOnce(t *testing.T) {
	// A leader that loses quorum mid-proposal fails the op with ErrUnknown;
	// the session retries with the same seq. If the entry did commit, dedup
	// must turn the retry into a no-op rather than a double apply. We force
	// the scenario by partitioning the leader right after propose.
	run(t, Options{Nodes: 3, Shards: 1, ReplicationFactor: 3, Seed: 11}, func(p *sim.Proc, c *Cluster) {
		s := c.Client(1)
		if err := s.Put(p, 0, []byte("ctr"), []byte{1}); err != nil {
			t.Fatalf("Put: %v", err)
		}
		leader, _ := c.WaitLeader(p, 0)
		g := c.nodes[leader].groups[0]
		// Propose directly, then immediately isolate the leader so the ack
		// path is severed; the entry may or may not reach a follower first.
		s.seq++
		pd, err := g.propose(p, entryFor(s.id, s.seq, []byte("ctr"), []byte{2}))
		if err != nil {
			t.Fatalf("propose: %v", err)
		}
		c.Isolate(leader)
		if pd != nil {
			p.Wait(pd.ev)
		}
		c.Heal()
		// Retry with the same seq until it lands.
		if err := s.mutate(p, 0, entryFor(s.id, s.seq, []byte("ctr"), []byte{2})); err != nil {
			t.Fatalf("retry: %v", err)
		}
		v, found, err := s.Get(p, 0, []byte("ctr"))
		if err != nil || !found || !bytes.Equal(v, []byte{2}) {
			t.Fatalf("Get = %q,%v,%v", v, found, err)
		}
	})
}

func entryFor(client, seq uint64, key, value []byte) wire.ReplicaEntry {
	return wire.ReplicaEntry{Kind: entryPut, Client: client, Seq: seq, Key: key, Value: value}
}

func TestMoveShard(t *testing.T) {
	run(t, Options{Nodes: 4, Shards: 1, ReplicationFactor: 3, Seed: 13}, func(p *sim.Proc, c *Cluster) {
		s := c.Client(1)
		for i := 0; i < 300; i++ {
			if err := s.Put(p, 0, []byte(fmt.Sprintf("key-%03d", i)), []byte{byte(i)}); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}
		members := c.Members(0)
		if slices.Contains(members, 3) {
			t.Fatalf("node 3 unexpectedly already a member: %v", members)
		}
		from := members[0]
		epochBefore := c.Epoch(0)
		if err := c.MoveShard(p, 0, from, 3); err != nil {
			t.Fatalf("MoveShard: %v", err)
		}
		after := c.Members(0)
		if !slices.Contains(after, 3) || slices.Contains(after, from) {
			t.Fatalf("ownership did not flip: %v -> %v", members, after)
		}
		if c.Epoch(0) <= epochBefore {
			t.Fatalf("epoch did not advance: %d -> %d", epochBefore, c.Epoch(0))
		}
		// All data must survive the move, including through the new member.
		for i := 0; i < 300; i++ {
			v, found, err := s.Get(p, 0, []byte(fmt.Sprintf("key-%03d", i)))
			if err != nil || !found || !bytes.Equal(v, []byte{byte(i)}) {
				t.Fatalf("lost key %d after move: %q,%v,%v", i, v, found, err)
			}
		}
		// And writes keep working in the new config.
		if err := s.Put(p, 0, []byte("post-move"), []byte("ok")); err != nil {
			t.Fatalf("Put after move: %v", err)
		}
	})
}

func TestMoveShardSurvivesMidMigrationPowerCut(t *testing.T) {
	run(t, Options{Nodes: 4, Shards: 1, ReplicationFactor: 3, Seed: 17}, func(p *sim.Proc, c *Cluster) {
		s := c.Client(1)
		for i := 0; i < 400; i++ {
			if err := s.Put(p, 0, []byte(fmt.Sprintf("key-%03d", i)), []byte{byte(i)}); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}
		members := c.Members(0)
		from := members[0]
		// Power-cut the migration target shortly after the stream starts.
		c.env.Go("nemesis", func(np *sim.Proc) {
			np.Sleep(linkDelay * 2)
			c.Crash(3)
			np.Sleep(electionTimeout * 20)
			if !c.stopped {
				c.Restart(np, 3)
			}
		})
		err := c.MoveShard(p, 0, from, 3)
		if err != nil {
			// The move failed cleanly; ownership must be unchanged or the
			// safe intermediate config, and data must be intact.
			cur := c.Members(0)
			for _, m := range members {
				if !slices.Contains(cur, m) && m != from {
					t.Fatalf("member %d vanished after failed move: %v", m, cur)
				}
			}
		}
		for i := 0; i < 400; i++ {
			v, found, gerr := s.Get(p, 0, []byte(fmt.Sprintf("key-%03d", i)))
			if gerr != nil || !found || !bytes.Equal(v, []byte{byte(i)}) {
				t.Fatalf("lost key %d (move err=%v): %q,%v,%v", i, err, v, found, gerr)
			}
		}
	})
}

func TestSnapshotCatchUpAfterPostMigrationFailover(t *testing.T) {
	// Regression: a leader whose log base > 0 (it installed a migration
	// snapshot) must be able to bring a behind follower back with a catch-up
	// snapshot whose ack actually reaches it — otherwise next[] never
	// advances, the follower never acks, and the group stalls as soon as the
	// quorum depends on that follower.
	run(t, Options{Nodes: 4, Shards: 1, ReplicationFactor: 3, Seed: 31}, func(p *sim.Proc, c *Cluster) {
		s := c.Client(1)
		for i := 0; i < 50; i++ {
			if err := s.Put(p, 0, []byte(fmt.Sprintf("key-%03d", i)), []byte{byte(i)}); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}
		leader, err := c.WaitLeader(p, 0)
		if err != nil {
			t.Fatalf("WaitLeader: %v", err)
		}
		var behind, other = -1, -1
		for _, m := range c.Members(0) {
			if m == leader {
				continue
			}
			if behind < 0 {
				behind = m
			} else {
				other = m
			}
		}
		// Cut one follower dark, then write entries it will never see.
		c.Crash(behind)
		for i := 50; i < 200; i++ {
			if err := s.Put(p, 0, []byte(fmt.Sprintf("key-%03d", i)), []byte{byte(i)}); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}
		// Reshard the remaining follower's seat to node 3: node 3 installs a
		// migration snapshot, so its log base covers everything `behind` lacks.
		if err := c.MoveShard(p, 0, other, 3); err != nil {
			t.Fatalf("MoveShard: %v", err)
		}
		// Kill the old leader and bring `behind` back. Node 3 holds the only
		// complete log among running members, so it must win the election —
		// and committing anything then requires `behind`, which can only
		// catch up through a leader-initiated snapshot.
		c.Crash(leader)
		c.Restart(p, behind)
		nl, err := c.WaitLeader(p, 0)
		if err != nil {
			t.Fatalf("no leader after failover (snapshot acks lost?): %v", err)
		}
		if nl != 3 {
			t.Fatalf("leader = %d, want the migrated node 3", nl)
		}
		if err := s.Put(p, 0, []byte("post-failover"), []byte("ok")); err != nil {
			t.Fatalf("Put needing snapshot-caught-up quorum: %v", err)
		}
		v, found, err := s.Get(p, 0, []byte("key-120"))
		if err != nil || !found || !bytes.Equal(v, []byte{120}) {
			t.Fatalf("Get key-120 after catch-up = %q,%v,%v", v, found, err)
		}
		if c.snapshots == 0 {
			t.Fatalf("no catch-up snapshot was sent; follower caught up some other way")
		}
		if g := c.nodes[behind].groups[0]; g.base == 0 {
			t.Fatalf("behind follower never installed the catch-up snapshot")
		}
	})
}

func TestMigrateStagingIsolatedPerStream(t *testing.T) {
	// Regression: staged chunks from an aborted stream must not leak into a
	// later install, and a refused Done chunk must clear the staging area.
	run(t, Options{Nodes: 2, Shards: 1, ReplicationFactor: 1, Seed: 37}, func(p *sim.Proc, c *Cluster) {
		g := c.nodes[1].groups[0] // non-member shell, as a reshard target
		chunk := func(stream uint64, done bool, snapIndex uint64, key string) {
			g.handleMigrate(p, &wire.Request{
				Op:    wire.OpMigrate,
				Pairs: []nvme.KVPair{{Key: []byte(key), Value: []byte(key)}},
				Replica: &wire.ReplicaMsg{
					Shard: 0, From: 0, Stream: stream,
					Done: done, SnapIndex: snapIndex, SnapTerm: 1,
				},
			})
		}
		has := func(key string) bool {
			_, found, err := g.sm.Lookup(p, []byte(key))
			if err != nil {
				t.Fatalf("Lookup %q: %v", key, err)
			}
			return found
		}
		// Stream 100 aborts after one chunk; stream 200 installs.
		chunk(100, false, 0, "stale")
		chunk(200, true, 5, "fresh")
		if has("stale") || !has("fresh") {
			t.Fatalf("aborted stream leaked into install: stale=%v fresh=%v", has("stale"), has("fresh"))
		}
		// Stream 300's Done is refused (SnapIndex 2 < applied 5): its staged
		// chunk must be dropped, not merged into the next stream's install.
		chunk(300, false, 0, "ghost")
		chunk(300, true, 2, "ghost2")
		if len(g.staging) != 0 {
			t.Fatalf("refused install left %d staged pairs", len(g.staging))
		}
		chunk(400, true, 9, "solid")
		if has("ghost") || has("ghost2") || !has("solid") {
			t.Fatalf("refused stream resurrected pairs: ghost=%v ghost2=%v solid=%v",
				has("ghost"), has("ghost2"), has("solid"))
		}
	})
}

func TestGaugesPublished(t *testing.T) {
	env := sim.NewEnv()
	reg := obs.NewRegistry(env)
	c := New(env, Options{Nodes: 3, Shards: 2, ReplicationFactor: 3, Seed: 19, Registry: reg})
	env.Go("test", func(p *sim.Proc) {
		defer c.Stop()
		if _, err := c.WaitLeader(p, 0); err != nil {
			t.Errorf("WaitLeader: %v", err)
		}
		s := c.Client(1)
		if err := s.Put(p, 0, []byte("k"), []byte("v")); err != nil {
			t.Errorf("Put: %v", err)
		}
		if _, _, err := s.Get(p, 0, []byte("k")); err != nil {
			t.Errorf("Get: %v", err)
		}
		if _, err := c.WaitLeader(p, 1); err != nil {
			t.Errorf("WaitLeader: %v", err)
		}
		p.Sleep(linkDelay) // nothing sent is still on a link
	})
	env.Run()
	if g := reg.LookupGauge("replica.shard0.leader"); g == nil || g.Value() < 0 {
		t.Fatalf("leader gauge missing or unset: %+v", g)
	}
	if g := reg.LookupGauge("replica.elections_total"); g == nil || g.Value() < 1 {
		t.Fatalf("elections gauge missing or zero")
	}
	if g := reg.LookupGauge("replica.shard0.commit"); g == nil || g.Value() < 1 {
		t.Fatalf("commit gauge missing or zero")
	}
	// The append stream's ledger matches the cluster's own counters; no frame
	// was lost, so every entry sent was appended and nothing was caught up.
	// The get after the quorum put found the lease held.
	for name, want := range map[string]int64{
		"replica.frames_sent_total":      c.FramesSent(),
		"replica.bytes_sent_total":       c.BytesSent(),
		"replica.entries_sent_total":     c.entriesSent,
		"replica.entries_appended_total": c.entriesAppended,
		"replica.probes_total":           0,
		"replica.lease_reads_total":      1,
		"replica.readindex_reads_total":  0,
	} {
		if g := reg.LookupGauge(name); g == nil || int64(g.Value()) != want {
			t.Errorf("gauge %s = %v, want %d", name, g, want)
		}
	}
	if c.entriesSent == 0 || c.entriesSent != c.entriesAppended {
		t.Errorf("%d entries sent, %d appended on a healthy cluster", c.entriesSent, c.entriesAppended)
	}
}

func TestRouteTable(t *testing.T) {
	run(t, Options{Nodes: 3, Shards: 2, ReplicationFactor: 2, Seed: 23}, func(p *sim.Proc, c *Cluster) {
		if _, err := c.WaitLeader(p, 0); err != nil {
			t.Fatalf("WaitLeader: %v", err)
		}
		ring := c.RouteTable("atoms")
		if len(ring) != 2 {
			t.Fatalf("ring entries = %d, want 2", len(ring))
		}
		for _, e := range ring {
			if e.Keyspace != "atoms" || len(e.Members) != 2 || e.Epoch != 1 {
				t.Fatalf("bad ring entry %+v", e)
			}
		}
		if ring[0].Leader < 0 {
			t.Fatalf("shard 0 leader hint missing after WaitLeader")
		}
	})
}

func TestWireTrafficIsReal(t *testing.T) {
	run(t, Options{Nodes: 3, Shards: 1, ReplicationFactor: 3, Seed: 29}, func(p *sim.Proc, c *Cluster) {
		s := c.Client(1)
		if err := s.Put(p, 0, []byte("k"), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if c.FramesSent() == 0 || c.BytesSent() == 0 {
			t.Fatalf("no wire frames moved: sent=%d bytes=%d", c.FramesSent(), c.BytesSent())
		}
	})
}

// A follower's append must cost the same whatever the log length: the
// membership config is updated from the appended entries alone, and the
// whole-log recomputeConfig walk is reserved for truncations and snapshot
// installs. (It used to run on every successful append, so a round of puts
// grew with the never-truncated log.)
func TestFollowerAppendDoesNotWalkLog(t *testing.T) {
	run(t, Options{Nodes: 3, Shards: 1, ReplicationFactor: 3, Seed: 1}, func(p *sim.Proc, c *Cluster) {
		if _, err := c.WaitLeader(p, 0); err != nil {
			t.Fatalf("WaitLeader: %v", err)
		}
		s := c.Client(1)
		put := func(n int) {
			for i := 0; i < n; i++ {
				if err := s.Put(p, 0, []byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
					t.Fatalf("Put %d: %v", i, err)
				}
			}
		}
		walked := func() (total, logLen int) {
			for _, n := range c.nodes {
				g := n.group(0)
				total += g.configWalked
				logLen = max(logLen, len(g.log))
			}
			return
		}
		put(8) // settle: the election's no-op and first appends are behind us
		w0, l0 := walked()
		put(256)
		w1, l1 := walked()
		if l1-l0 < 256 {
			t.Fatalf("log grew %d entries over 256 puts", l1-l0)
		}
		if w1 != w0 {
			t.Fatalf("256 steady-state puts walked %d log entries re-deriving the config (log length %d -> %d)", w1-w0, l0, l1)
		}
	})
}
