package chaos

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"kvcsd/internal/linearize"
	"kvcsd/internal/replica"
	"kvcsd/internal/sim"
)

// ClusterOptions configures a cluster-consistency campaign: many short
// seeded scenarios, each a fresh replica cluster under concurrent client
// load with one nemesis injection — a leader kill, a partition, a resharding
// migration with a mid-stream power cut, or a race against the leader lease —
// followed by a linearizability check of the full operation history.
type ClusterOptions struct {
	// Seed derives every scenario's cluster seed, workload, and nemesis.
	Seed int64
	// Scenarios is the number of independent scenarios to run.
	Scenarios int
	// Nodes, Shards, ReplicationFactor shape each scenario's cluster.
	Nodes             int
	Shards            int
	ReplicationFactor int
	// Clients and OpsPerClient shape the concurrent workload.
	Clients      int
	OpsPerClient int
	// Keys is the size of the shared key space (contention knob).
	Keys int
	// RetryAttempts bounds client retries; keeping it low lets operations
	// racing a fault end ambiguously, which is the hard case for the checker.
	RetryAttempts int
	// UnsafeStaleReads runs every scenario with the deliberately broken
	// read path — the campaign's negative control MUST report violations.
	UnsafeStaleReads bool
}

// DefaultClusterOptions covers the acceptance campaign: >= 100 scenarios.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{
		Seed:              1,
		Scenarios:         100,
		Nodes:             4,
		Shards:            2,
		ReplicationFactor: 3,
		Clients:           3,
		OpsPerClient:      12,
		Keys:              8,
		RetryAttempts:     6,
	}
}

// Nemesis kinds, chosen per scenario from the seed.
const (
	nemesisLeaderKill = iota
	nemesisPartition
	nemesisIsolate
	nemesisReshard
	nemesisBlackout
	nemesisLeaseSplit
	nemesisKinds
)

var nemesisNames = [...]string{"leader-kill", "partition", "isolate", "reshard", "blackout", "lease-split"}

// ClusterScenario is the outcome of one scenario.
type ClusterScenario struct {
	Seed       int64
	Nemesis    string
	Ops        int
	Unknown    int
	Failed     int
	Elections  int64
	Frames     int64
	Keys       int
	States     int
	Violations []linearize.Violation
}

// ClusterResult is the campaign outcome.
type ClusterResult struct {
	Options   ClusterOptions
	Scenarios []ClusterScenario
	// Violations is the total violation count across all scenarios.
	Violations int
}

// Summary renders the campaign deterministically, one line per scenario.
func (r *ClusterResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster campaign seed=%d scenarios=%d violations=%d\n",
		r.Options.Seed, len(r.Scenarios), r.Violations)
	for i, s := range r.Scenarios {
		fmt.Fprintf(&b, "#%03d seed=%d %s ops=%d unknown=%d failed=%d elections=%d frames=%d keys=%d states=%d",
			i, s.Seed, s.Nemesis, s.Ops, s.Unknown, s.Failed, s.Elections, s.Frames, s.Keys, s.States)
		if n := len(s.Violations); n > 0 {
			fmt.Fprintf(&b, " VIOLATIONS=%d", n)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FirstViolation renders the first violation found, for failure messages.
func (r *ClusterResult) FirstViolation() string {
	for i, s := range r.Scenarios {
		if len(s.Violations) > 0 {
			return fmt.Sprintf("scenario #%d (seed=%d, %s):\n%s", i, s.Seed, s.Nemesis, s.Violations[0])
		}
	}
	return ""
}

// RunCluster executes the campaign. Every scenario is an independent
// simulation: concurrent clients issue put/get/delete against consensus
// shard groups while the nemesis kills leaders, partitions links, or
// power-cuts a device mid-migration; afterwards the recorded history is
// checked for linearizability.
func RunCluster(opts ClusterOptions) *ClusterResult {
	res := &ClusterResult{Options: opts}
	root := sim.NewRNG(opts.Seed)
	for i := 0; i < opts.Scenarios; i++ {
		seed := root.Int63()
		sc := runClusterScenario(opts, seed, i)
		res.Scenarios = append(res.Scenarios, sc)
		res.Violations += len(sc.Violations)
	}
	return res
}

func runClusterScenario(opts ClusterOptions, seed int64, index int) ClusterScenario {
	env := sim.NewEnv()
	c := replica.New(env, replica.Options{
		Nodes:             opts.Nodes,
		Shards:            opts.Shards,
		ReplicationFactor: opts.ReplicationFactor,
		Seed:              seed,
		RetryAttempts:     opts.RetryAttempts,
		UnsafeStaleReads:  opts.UnsafeStaleReads,
	})
	rec := linearize.NewRecorder(env)
	rng := sim.NewRNG(seed).Fork(0xC4A05)
	kind := rng.Intn(nemesisKinds)
	sc := ClusterScenario{Seed: seed, Nemesis: nemesisNames[kind]}

	env.Go("scenario", func(p *sim.Proc) {
		defer c.Stop()
		var clients []*sim.Proc
		for cl := 0; cl < opts.Clients; cl++ {
			id := uint64(cl + 1)
			crng := rng.Fork(int64(cl + 1))
			clients = append(clients, env.Go(fmt.Sprintf("client:%d", cl), func(cp *sim.Proc) {
				runClusterClient(cp, c, rec, opts, id, crng)
			}))
		}
		nemesis := env.Go("nemesis", func(np *sim.Proc) {
			runNemesis(np, c, opts, kind, rng.Fork(0x4E454D))
		})
		p.Join(clients...)
		p.Join(nemesis)
	})
	env.Run()

	history := rec.History()
	sc.Ops = len(history)
	for _, op := range history {
		switch op.Outcome {
		case linearize.OutcomeUnknown:
			sc.Unknown++
		case linearize.OutcomeFailed:
			sc.Failed++
		}
	}
	sc.Elections = c.Elections()
	sc.Frames = c.FramesSent()
	check := linearize.Check(history)
	sc.Keys = check.Keys
	sc.States = check.States
	sc.Violations = check.Violations
	return sc
}

// runClusterClient issues the recorded workload for one client.
func runClusterClient(p *sim.Proc, c *replica.Cluster, rec *linearize.Recorder,
	opts ClusterOptions, id uint64, rng *sim.RNG) {
	env := p.Env()
	session := c.Client(id)
	for i := 0; i < opts.OpsPerClient; i++ {
		p.Sleep(sim.Duration(rng.Intn(int(2 * time.Millisecond))))
		k := rng.Intn(opts.Keys)
		shard := k % opts.Shards
		key := fmt.Sprintf("key-%02d", k)
		switch draw := rng.Intn(100); {
		case draw < 45: // put
			value := fmt.Sprintf("c%d-%d", id, i)
			h := rec.Invoke(id, linearize.OpPut, key, value)
			err := session.Put(p, shard, []byte(key), []byte(value))
			recordWrite(env, h, err)
		case draw < 60: // delete
			h := rec.Invoke(id, linearize.OpDelete, key, "")
			err := session.Delete(p, shard, []byte(key))
			recordWrite(env, h, err)
		default: // get
			h := rec.Invoke(id, linearize.OpGet, key, "")
			v, found, err := session.Get(p, shard, []byte(key))
			switch {
			case err == nil:
				h.OK(env, found, string(v))
			case replica.Definite(err):
				h.Failed(env)
			default:
				h.Unknown(env)
			}
		}
	}
}

func recordWrite(env *sim.Env, h *linearize.Handle, err error) {
	switch {
	case err == nil:
		h.OK(env, false, "")
	case replica.Definite(err):
		h.Failed(env)
	default:
		h.Unknown(env)
	}
}

// runNemesis injects one fault sequence, then repairs everything it broke so
// the scenario always ends with a functioning cluster.
func runNemesis(p *sim.Proc, c *replica.Cluster, opts ClusterOptions, kind int, rng *sim.RNG) {
	p.Sleep(sim.Duration(1+rng.Intn(4)) * time.Millisecond)
	shard := rng.Intn(opts.Shards)
	// Strike a real leader: before the first election the cluster has nothing
	// worth breaking, and clients are still waiting for it too.
	leader, err := c.WaitLeader(p, shard)
	if err != nil {
		return
	}
	switch kind {
	case nemesisLeaderKill:
		victim := leader
		c.Crash(victim)
		p.Sleep(sim.Duration(5+rng.Intn(10)) * time.Millisecond)
		c.Restart(p, victim)

	case nemesisPartition:
		a := rng.Intn(opts.Nodes)
		b := (a + 1 + rng.Intn(opts.Nodes-1)) % opts.Nodes
		c.Partition(a, b)
		p.Sleep(sim.Duration(5+rng.Intn(10)) * time.Millisecond)
		c.Heal()

	case nemesisIsolate:
		c.Isolate(leader)
		p.Sleep(sim.Duration(5+rng.Intn(10)) * time.Millisecond)
		c.Heal()

	case nemesisReshard:
		members := c.Members(shard)
		to := -1
		for n := 0; n < opts.Nodes; n++ {
			if !slices.Contains(members, n) {
				to = n
				break
			}
		}
		if to < 0 {
			// Fully replicated everywhere: degrade to a leader kill.
			victim := c.Leader(shard)
			if victim < 0 {
				victim = 0
			}
			c.Crash(victim)
			p.Sleep(sim.Duration(5+rng.Intn(10)) * time.Millisecond)
			c.Restart(p, victim)
			return
		}
		from := members[rng.Intn(len(members))]
		// Power-cut the migration target (or an old owner) mid-stream.
		cutMigration(p, c, rng, from, to, shard)

	case nemesisBlackout:
		// Take out a quorum: isolate the leader plus one more member for
		// longer than a client's retry budget. Proposals appended at the
		// isolated leader before its CheckQuorum step-down cannot commit or
		// abort until the heal, so clients exhaust their retries and must
		// record those writes as ambiguous — the hard case for the checker.
		members := c.Members(shard)
		other := leader
		for _, m := range members {
			if m != leader {
				other = m
				break
			}
		}
		c.Isolate(leader)
		if other != leader {
			c.Isolate(other)
		}
		p.Sleep(sim.Duration(30+rng.Intn(15)) * time.Millisecond)
		c.Heal()

	case nemesisLeaseSplit:
		// Race the leader lease: cut the leader off from one follower, which
		// campaigns while the lease the others granted still holds, and
		// power-cycle another member, which forgets whose lease it backed.
		// Gets the old leader serves under its lease must not miss a write
		// a new leader commits.
		var followers []int
		for _, m := range c.Members(shard) {
			if m != leader {
				followers = append(followers, m)
			}
		}
		if len(followers) < 2 {
			return
		}
		cut := followers[rng.Intn(len(followers))]
		bounce := followers[0]
		if bounce == cut {
			bounce = followers[1]
		}
		c.Partition(leader, cut)
		// The cut node campaigns 10–20 ms on: bounce the other around then.
		p.Sleep(sim.Duration(5+rng.Intn(10)) * time.Millisecond)
		c.Crash(bounce)
		p.Sleep(sim.Duration(rng.Intn(int(2 * time.Millisecond))))
		c.Restart(p, bounce)
		p.Sleep(sim.Duration(5+rng.Intn(10)) * time.Millisecond)
		c.Heal()
	}
}

// cutMigration runs the mid-stream power cut for the reshard nemesis.
func cutMigration(p *sim.Proc, c *replica.Cluster, rng *sim.RNG, from, to, shard int) {
	cutTarget := to
	if rng.Intn(2) == 0 {
		cutTarget = from
	}
	cutter := p.Env().Go("nemesis:cut", func(cp *sim.Proc) {
		cp.Sleep(sim.Duration(1+rng.Intn(3)) * time.Millisecond)
		c.Crash(cutTarget)
		cp.Sleep(sim.Duration(5+rng.Intn(10)) * time.Millisecond)
		c.Restart(cp, cutTarget)
	})
	// The move may fail cleanly under the power cut; that is part of the
	// contract being tested — ownership must stay safe either way.
	_ = c.MoveShard(p, shard, from, to)
	p.Join(cutter)
}
