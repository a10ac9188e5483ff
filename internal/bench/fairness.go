package bench

import (
	"fmt"
	"sort"
	"time"

	"kvcsd/internal/nvme"
	"kvcsd/internal/session"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// OverloadFairness measures QoS isolation in the session front end: the real
// deficit-weighted-fair scheduler and per-tenant quotas are driven by mixed
// tenant profiles in virtual time — latency-sensitive readers, one
// well-behaved writer, and one abusive bulk loader that keeps ~2x the
// admission window's worth of scheduler credit outstanding and retries sheds
// almost immediately. Two phases run:
//
//	solo      the readers alone (uncontended baseline for latency-lane p99)
//	overload  every profile at once, the abusive tenant flooding throughout
//
// The summary row reports Jain's fairness index over the readers' overload
// throughputs and the pooled reader p99 degradation versus the uncontended
// phase. With the fair scheduler the expectation is Jain >= 0.9 and p99
// degradation <= 2x; with a FIFO/global pool the abusive tenant would occupy
// the whole admission window and both numbers collapse.
//
// Like the rest of the figures this is a seeded discrete-event simulation:
// arrivals, think times, and service times are virtual, so every run with the
// same Scale is bit-identical and the figure can be regression-gated.
func OverloadFairness(s Scale) (*Table, error) {
	ops := s.FairnessOps
	if ops <= 0 {
		ops = DefaultScale().FairnessOps
	}
	seed := s.Seed

	t := &Table{
		Fig: "fairness", Keys: []string{"phase", "tenant"},
		Title:  "Overload fairness: weighted-fair admission under a 2x bulk flood",
		Header: []string{"phase", "tenant", "lane", "ops", "ops_s", "p99_ms", "shed", "jain", "p99_ratio"},
		Notes: []string{
			fmt.Sprintf("%d gets per reader per phase; admission window %d, per-tenant quota %d, dispatch batch %d",
				ops, fairInflight, fairTenantQueue, fairMaxBatch),
			"abusive tenant keeps 16 bulk messages (~1.5 admission windows of scheduler credit) outstanding, retrying sheds immediately",
			"jain = Jain's fairness index over the readers' overload throughputs; p99_ratio = pooled reader p99, overload / solo",
		},
	}

	solo, err := runFairPhase(t, fairProfiles(ops, false), seed)
	if err != nil {
		return nil, fmt.Errorf("solo phase: %w", err)
	}
	over, err := runFairPhase(t, fairProfiles(ops, true), seed)
	if err != nil {
		return nil, fmt.Errorf("overload phase: %w", err)
	}

	var soloLat, overLat []time.Duration
	var rates []float64
	for _, r := range solo {
		if r.lane != wire.LaneLatency {
			continue
		}
		soloLat = append(soloLat, r.lat...)
		t.Add("solo", r.name, r.lane.String(), fmt.Sprintf("%d", r.done),
			opsPerSec(r.done, r.end), millis(p99(r.lat)), fmt.Sprintf("%d", r.shed), "-", "-")
	}
	for _, r := range over {
		if r.lane == wire.LaneLatency {
			overLat = append(overLat, r.lat...)
			rates = append(rates, float64(r.done)/time.Duration(r.end).Seconds())
		}
		t.Add("overload", r.name, r.lane.String(), fmt.Sprintf("%d", r.done),
			opsPerSec(r.done, r.end), millis(p99(r.lat)), fmt.Sprintf("%d", r.shed), "-", "-")
	}

	ratio := 0.0
	if base := p99(soloLat); base > 0 {
		ratio = float64(p99(overLat)) / float64(base)
	}
	t.Add("overload", "summary", "-", "-", "-", millis(p99(overLat)), "-",
		fmt.Sprintf("%.4f", jain(rates)), fmt.Sprintf("%.2f", ratio))
	return t, nil
}

// The simulated front end: the admission window, per-tenant quota, and
// dispatch batch mirror a small server.Config; service times model the
// gateway applying requests serially.
const (
	fairInflight    = 32
	fairTenantQueue = 8 // fair slice: a quarter of the admission window
	fairMaxBatch    = 1

	svcGet  = 20 * time.Microsecond
	svcPut  = 30 * time.Microsecond
	svcBulk = 72 * time.Microsecond // 40µs + 2µs per staged pair
)

// fairProfile describes one tenant profile of the harness.
type fairProfile struct {
	tenant  string
	lane    wire.Lane
	workers int
	ops     int // per worker; 0 = flood until every finite profile finishes
	req     *wire.Request
	svc     sim.Duration
	think   sim.Duration // mean of the exponential think time; 0 = none
	retry   sim.Duration // client back-off after a shed
}

func fairProfiles(ops int, overload bool) []fairProfile {
	get := &wire.Request{Op: wire.OpGet, Key: make([]byte, 16)}
	put := &wire.Request{Op: wire.OpPut, Key: make([]byte, 16), Value: make([]byte, 32)}
	bulk := &wire.Request{Op: wire.OpBulkPut, Pairs: make([]nvme.KVPair, 16)}
	for i := range bulk.Pairs {
		bulk.Pairs[i] = nvme.KVPair{Key: make([]byte, 16), Value: make([]byte, 32)}
	}
	ps := []fairProfile{
		{tenant: "reader-1", lane: wire.LaneLatency, workers: 4, ops: ops / 4, req: get, svc: svcGet, think: 300 * time.Microsecond},
		{tenant: "reader-2", lane: wire.LaneLatency, workers: 4, ops: ops / 4, req: get, svc: svcGet, think: 300 * time.Microsecond},
		{tenant: "reader-3", lane: wire.LaneLatency, workers: 4, ops: ops / 4, req: get, svc: svcGet, think: 300 * time.Microsecond},
	}
	if overload {
		ps = append(ps,
			fairProfile{tenant: "writer", lane: wire.LaneNormal, workers: 2, ops: ops / 4, req: put, svc: svcPut, think: 500 * time.Microsecond},
			fairProfile{tenant: "bulk-hog", lane: wire.LaneBulk, workers: 16, req: bulk, svc: svcBulk, retry: 20 * time.Microsecond},
		)
	}
	return ps
}

// fairWorker is one closed-loop client of a profile.
type fairWorker struct {
	res      *fairResult
	tenant   *session.Tenant
	lane     wire.Lane
	cost     int64
	svc      sim.Duration
	think    sim.Duration
	retry    sim.Duration
	ops      int // 0 = flood
	rng      *sim.RNG
	nextAt   sim.Time // when the client (re)sends
	sentAt   sim.Time
	inflight bool
	done     int
}

func (w *fairWorker) finished() bool { return w.ops > 0 && w.done >= w.ops }

// fairResult accumulates one tenant's phase outcome.
type fairResult struct {
	name string
	lane wire.Lane
	done int
	end  time.Duration // virtual time of the tenant's last completion
	lat  []time.Duration
	shed int64
}

// runFairPhase drives the profiles through a session.Scheduler in one
// discrete-event loop run on behalf of t: due arrivals are admitted (or shed
// and backed off), then the modeled gateway pops a fair batch and applies it
// serially in virtual service time. The loop ends once every finite profile
// completes; the flood, if present, runs for the whole phase.
func runFairPhase(t *Table, profiles []fairProfile, seed int64) ([]*fairResult, error) {
	mgr := session.NewManager(session.Config{TenantQueue: fairTenantQueue, Seed: seed})
	sched := session.NewScheduler(mgr.Config(), fairInflight)
	rng := sim.NewRNG(seed)

	results := make([]*fairResult, len(profiles))
	var workers []*fairWorker
	for i, pr := range profiles {
		res := &fairResult{name: pr.tenant, lane: pr.lane}
		results[i] = res
		ten := mgr.Tenant(pr.tenant)
		for j := 0; j < pr.workers; j++ {
			w := &fairWorker{
				res: res, tenant: ten, lane: pr.lane,
				cost: session.RequestCost(pr.req),
				svc:  pr.svc, think: pr.think, retry: pr.retry,
				ops: pr.ops, rng: rng.Fork(int64(i*64 + j)),
			}
			if w.retry <= 0 {
				w.retry = time.Microsecond
			}
			// Stagger first arrivals so the phase does not open with a
			// thundering herd at t=0.
			w.nextAt = sim.Time(w.rng.Float64() * float64(w.svc+w.think))
			workers = append(workers, w)
		}
	}
	allDone := func() bool {
		for _, w := range workers {
			if w.ops > 0 && !w.finished() {
				return false
			}
		}
		return true
	}

	env := sim.NewEnv()
	env.Go("fairness", func(p *sim.Proc) {
		for {
			now := p.Now()
			for _, w := range workers {
				if w.inflight || w.finished() || w.nextAt > now {
					continue
				}
				it := &session.Item{Tenant: w.tenant, Lane: w.lane, Cost: w.cost, Value: w}
				if cause := sched.Enqueue(it); cause != session.CauseNone {
					w.tenant.NoteShed(w.lane, cause)
					w.res.shed++
					w.nextAt = now.Add(w.retry)
					continue
				}
				w.tenant.NoteAdmitted(w.lane)
				w.sentAt = w.nextAt
				w.inflight = true
			}
			if allDone() {
				return
			}
			if sched.Queued() > 0 {
				batch, _ := sched.NextBatch(fairMaxBatch)
				for _, it := range batch {
					w := it.Value.(*fairWorker)
					p.Sleep(w.svc)
					end := p.Now()
					w.tenant.NoteCompleted(w.lane)
					w.inflight = false
					w.done++
					w.res.done++
					w.res.end = time.Duration(end)
					w.res.lat = append(w.res.lat, time.Duration(end-w.sentAt))
					w.nextAt = end
					if w.think > 0 {
						w.nextAt = end.Add(sim.Duration(w.rng.ExpFloat64() * float64(w.think)))
					}
				}
				sched.Release(len(batch))
				continue
			}
			next := sim.MaxTime
			for _, w := range workers {
				if !w.inflight && !w.finished() && w.nextAt < next {
					next = w.nextAt
				}
			}
			if next == sim.MaxTime {
				return
			}
			p.SleepUntil(next)
		}
	})
	t.run(env)
	return results, nil
}

// jain computes Jain's fairness index (sum x)^2 / (n * sum x^2): 1.0 means
// perfectly even shares, 1/n means one party took everything.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// p99 returns the 99th-percentile sample.
func p99(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s))*0.99+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func millis(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d)/1e6) }

func opsPerSec(n int, d time.Duration) string {
	if d <= 0 {
		return "0"
	}
	return fmt.Sprintf("%.0f", float64(n)/d.Seconds())
}
