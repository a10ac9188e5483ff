package bench

import (
	"fmt"
	"time"

	"kvcsd/internal/replica"
	"kvcsd/internal/sim"
)

// failoverNodeSweep is the group-size axis of the failover experiment: the
// smallest quorum-capable group and the five-node group that tolerates two
// losses.
var failoverNodeSweep = []int{3, 5}

// failoverTrials is how many crash/re-elect cycles each row averages over.
const failoverTrials = 5

// failoverResult carries the virtual-clock measurements of one group size.
type failoverResult struct {
	firstElect time.Duration // cold start to first ready leader
	elect      time.Duration // mean crash to next ready leader
	recover    time.Duration // mean crash to first committed write
	elections  int64
}

// FailoverLatency measures how quickly a consensus shard group restores
// service after losing its leader. For each group size a single-shard cluster
// of MemKV replicas is started, warmed with committed writes, and then put
// through crash/failover cycles: the leader is killed, the time until a new
// leader is ready (elected and its no-op entry committed) is the election
// latency, and the time until the next client write commits at quorum is the
// recovery latency. All timings are virtual-clock, so the figure is
// deterministic for a given seed.
func FailoverLatency(s Scale) (*Table, error) {
	t := &Table{
		Fig: "failover", Keys: []string{"nodes"},
		Title:  "Consensus failover: leader crash to restored service (virtual clock)",
		Header: []string{"nodes", "first_elect_us", "elect_us", "recover_us", "elections"},
		Notes: []string{
			fmt.Sprintf("mean of %d leader-crash cycles per row; crashed node restarts between cycles", failoverTrials),
			"elect_us: crash to ready leader (no-op committed); recover_us adds the first quorum write",
		},
	}
	for _, n := range failoverNodeSweep {
		res, err := failoverRun(t, n, s.Seed)
		if err != nil {
			return nil, fmt.Errorf("failover at %d nodes: %w", n, err)
		}
		t.Add(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", float64(res.firstElect)/float64(time.Microsecond)),
			fmt.Sprintf("%.1f", float64(res.elect)/float64(time.Microsecond)),
			fmt.Sprintf("%.1f", float64(res.recover)/float64(time.Microsecond)),
			fmt.Sprintf("%d", res.elections),
		)
	}
	return t, nil
}

// failoverRun executes the crash cycles for one group size on behalf of t.
func failoverRun(t *Table, nodes int, seed int64) (failoverResult, error) {
	env := sim.NewEnv()
	c := replica.New(env, replica.Options{
		Nodes:             nodes,
		Shards:            1,
		ReplicationFactor: nodes,
		Seed:              seed,
	})
	var res failoverResult
	var runErr error
	env.Go("failover", func(p *sim.Proc) {
		defer c.Stop()
		t0 := p.Now()
		if _, err := c.WaitLeader(p, 0); err != nil {
			runErr = err
			return
		}
		res.firstElect = time.Duration(p.Now() - t0)

		sess := c.Client(1)
		for i := 0; i < 32; i++ {
			k := []byte(fmt.Sprintf("warm%02d", i))
			if err := sess.Put(p, 0, k, []byte("v")); err != nil {
				runErr = fmt.Errorf("warmup put %d: %w", i, err)
				return
			}
		}

		var electSum, recoverSum time.Duration
		for trial := 0; trial < failoverTrials; trial++ {
			leader := c.Leader(0)
			tCrash := p.Now()
			c.Crash(leader)
			if _, err := c.WaitLeader(p, 0); err != nil {
				runErr = fmt.Errorf("trial %d: no leader after crash: %w", trial, err)
				return
			}
			electSum += time.Duration(p.Now() - tCrash)
			k := []byte(fmt.Sprintf("trial%02d", trial))
			if err := sess.Put(p, 0, k, []byte("v")); err != nil {
				runErr = fmt.Errorf("trial %d: post-failover put: %w", trial, err)
				return
			}
			recoverSum += time.Duration(p.Now() - tCrash)
			// Bring the crashed node back and let it catch up so every
			// trial starts from a full group.
			c.Restart(p, leader)
			p.Sleep(20 * time.Millisecond)
		}
		res.elect = electSum / failoverTrials
		res.recover = recoverSum / failoverTrials
		res.elections = c.Elections()
	})
	t.run(env)
	return res, runErr
}
