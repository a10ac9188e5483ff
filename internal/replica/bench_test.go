package replica

import (
	"fmt"
	"testing"
	"time"

	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// benchGroup runs fn on a settled three-node MemKV group and reports the
// consensus frames one operation cost next to the time and the allocations.
func benchGroup(b *testing.B, fn func(p *sim.Proc, s *Session, i int) error) {
	env := sim.NewEnv()
	c := New(env, opts3(1))
	env.Go("bench", func(p *sim.Proc) {
		defer c.Stop()
		s := c.Client(1)
		for i := 0; i < 64; i++ { // elect, spawn the delivery procs, fill the keys gets read
			if err := s.Put(p, 0, []byte(fmt.Sprintf("key-%02d", i)), make([]byte, 128)); err != nil {
				b.Errorf("warm-up put: %v", err)
				return
			}
		}
		frames := c.FramesSent()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fn(p, s, i); err != nil {
				b.Errorf("op %d: %v", i, err)
				return
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(c.FramesSent()-frames)/float64(b.N), "frames/op")
	})
	env.Run()
}

// BenchmarkQuorumPut3 is one put committed at quorum on a three-node group:
// propose, two AppendEntries, two acks, apply.
func BenchmarkQuorumPut3(b *testing.B) {
	key, value := []byte("key-00"), make([]byte, 128)
	benchGroup(b, func(p *sim.Proc, s *Session, i int) error {
		key[4], key[5] = byte('0'+i/10%6), byte('0'+i%10)
		return s.Put(p, 0, key, value)
	})
}

// BenchmarkLeaseGet3 is one linearizable get on a three-node group: the
// leader's lease holds, so it is the lookup alone and sends no frame (the
// read-index fallback's four frames are pinned by
// TestReadIndexFallbackCostsOneRound).
func BenchmarkLeaseGet3(b *testing.B) {
	key := []byte("key-00")
	benchGroup(b, func(p *sim.Proc, s *Session, i int) error {
		key[4], key[5] = byte('0'+i/10%6), byte('0'+i%10)
		_, found, err := s.Get(p, 0, key)
		if err == nil && !found {
			err = fmt.Errorf("key %s missing", key)
		}
		return err
	})
}

// nopSM applies nothing, so an allocation gate sees the stream alone.
type nopSM struct{}

func (nopSM) Apply(*sim.Proc, Command) error                 { return nil }
func (nopSM) Lookup(*sim.Proc, []byte) ([]byte, bool, error) { return nil, false, nil }
func (nopSM) Snapshot(*sim.Proc) ([]nvme.KVPair, error)      { return nil, nil }
func (nopSM) Restore(*sim.Proc, []nvme.KVPair) error         { return nil }

// TestAppendRoundAllocs is the allocation budget of the append stream in
// steady state, on a leader with one follower so that the frames counted are
// one AppendEntries and its reply: encode into a lent buffer, carry on a
// resident proc, decode into its scratch, handle, reply the same way. An
// empty AppendEntries (heartbeat, read-index round) allocates nothing; one
// that carries an entry allocates what the follower's log keeps of it — the
// copy of its key and value.
func TestAppendRoundAllocs(t *testing.T) {
	env := sim.NewEnv()
	c := New(env, Options{Nodes: 2, Shards: 1, ReplicationFactor: 2, Seed: 1,
		NewSM: func(int, int) StateMachine { return nopSM{} }})
	var empty, oneEntry float64
	env.Go("gate", func(p *sim.Proc) {
		defer c.Stop()
		id, err := c.WaitLeader(p, 0)
		if err != nil {
			t.Errorf("WaitLeader: %v", err)
			return
		}
		g := c.nodes[id].groups[0]
		for _, n := range c.nodes { // the log's own growth is not the stream's
			l := n.groups[0]
			l.log = append(make([]wire.ReplicaEntry, 0, 1<<12), l.log...)
		}
		e := entryFor(0, 0, []byte("key-0000"), make([]byte, 128))
		e.Term = g.term
		round := func(entries int) func() {
			return func() {
				for i := 0; i < entries; i++ {
					g.appendLocal(p, e)
				}
				g.broadcastAppend()
				p.Sleep(2*linkDelay + time.Microsecond)
			}
		}
		for i := 0; i < 64; i++ { // spawn the procs, grow the buffers and the event queue
			round(1)()
		}
		empty = testing.AllocsPerRun(200, round(0))
		last := g.lastIndex()
		oneEntry = testing.AllocsPerRun(200, round(1))
		if f := c.nodes[1-id].groups[0]; g.lastIndex() != last+201 || f.lastIndex() != g.lastIndex() || g.commit != g.lastIndex() {
			t.Errorf("leader at %d (commit %d), follower at %d after 201 one-entry rounds from %d",
				g.lastIndex(), g.commit, f.lastIndex(), last)
		}
	})
	env.Run()
	if empty != 0 {
		t.Errorf("empty AppendEntries round: %.1f allocs, want 0", empty)
	}
	if oneEntry != 1 {
		t.Errorf("one-entry AppendEntries round: %.1f allocs, want 1 (the follower's copy of key and value)", oneEntry)
	}
}
