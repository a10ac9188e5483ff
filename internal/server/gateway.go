package server

import (
	"encoding/json"
	"time"

	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// gateway is the bridge proc between wall-clock sockets and virtual time.
// It blocks on the fair scheduler while the server is idle (the simulation
// spends no virtual time on an idle server), takes whatever has accumulated
// as one batch — in weighted-fair order: priority lanes by credit, tenants
// within a lane by deficit round-robin — and runs the batch as concurrent
// sim procs that share the same virtual admission instant, which is what
// lets pipelined requests from many connections genuinely overlap inside
// the device model.
func (s *Server) gateway(p *sim.Proc) {
	for {
		// While the socket side is quiet but the device still has
		// background work (compaction, index builds), advance virtual time
		// in small slices so status polls from remote clients observe
		// progress. Without this pump, background jobs would stay frozen
		// between requests and a WaitCompacted poll loop would never finish.
		for s.sched.Queued() == 0 && s.backend.BackgroundJobs() > 0 {
			p.Sleep(s.cfg.BackgroundSlice)
		}
		items, ok := s.sched.NextBatch(s.cfg.MaxBatch)
		if len(items) > 0 {
			batch := make([]*task, len(items))
			for i, it := range items {
				batch[i] = it.Value.(*task)
			}
			s.runBatch(p, batch)
		}
		if !ok {
			break
		}
	}
	// Drain: intake is closed and the scheduler is empty. Finish background
	// work, then stop the device dispatch loops so the simulation can end.
	_ = s.backend.WaitIdle(p)
	s.backend.Shutdown()
}

// rpcNames holds, per opcode, the handler proc's name and the rpc span's
// name and op label, built once: the request path would otherwise
// concatenate all three for every request, tracing on or off.
var rpcNames = func() (t [256]struct{ proc, span, op string }) {
	for i := range t {
		s := wire.Op(i).String()
		t[i].proc, t[i].span, t[i].op = "rpc-"+s, "rpc:"+s, "rpc/"+s
	}
	return t
}()

// putGroup is a set of same-keyspace puts coalesced into one bulk device
// submission.
type putGroup struct {
	keyspace string
	tasks    []*task
}

// runBatch executes one admitted batch: coalescable puts become one bulk
// submission per keyspace, everything else runs as its own handler proc.
// All handlers start at the same virtual instant; Join holds the gateway
// until the batch completes so batches never interleave.
func (s *Server) runBatch(p *sim.Proc, batch []*task) {
	env := p.Env()
	var procs []*sim.Proc
	groups, singles := coalescePuts(batch)
	for _, g := range groups {
		g := g
		s.met.addCoalesced(len(g.tasks))
		procs = append(procs, env.Go("rpc-put-batch", func(q *sim.Proc) {
			s.handleGroup(q, g)
		}))
	}
	for _, t := range singles {
		t := t
		procs = append(procs, env.Go(rpcNames[t.req.Op].proc, func(q *sim.Proc) {
			s.handle(q, t)
		}))
	}
	p.Join(procs...)
}

// coalescePuts splits a batch into per-keyspace put groups (two or more
// puts) and the remaining singles, preserving first-seen order so the
// grouping is deterministic for a given batch.
func coalescePuts(batch []*task) ([]*putGroup, []*task) {
	byKS := make(map[string]*putGroup)
	var order []*putGroup
	var singles []*task
	for _, t := range batch {
		if t.req.Op != wire.OpPut {
			singles = append(singles, t)
			continue
		}
		g, ok := byKS[t.req.Keyspace]
		if !ok {
			g = &putGroup{keyspace: t.req.Keyspace}
			byKS[t.req.Keyspace] = g
			order = append(order, g)
		}
		g.tasks = append(g.tasks, t)
	}
	var groups []*putGroup
	for _, g := range order {
		if len(g.tasks) < 2 {
			// A lone put gains nothing from the bulk path; run it as-is.
			singles = append(singles, g.tasks...)
			continue
		}
		groups = append(groups, g)
	}
	return groups, singles
}

// handle runs one request in its own sim proc. The request's trace context
// (propagated in the frame header) seeds the rpc span, so device spans the
// request causes are descendants of the remote client span that sent it.
func (s *Server) handle(q *sim.Proc, t *task) {
	queueWait := time.Since(t.enq)
	names := &rpcNames[t.req.Op]
	span := s.tr.StartRemoteRoot(q, names.span, names.op, t.req.Trace.TraceID, t.req.Trace.SpanID)
	if span != nil {
		s.tr.Push(q, span)
	}
	v0 := q.Now()
	r0 := time.Now()
	resp := s.backend.Apply(q, t.req)
	svc := time.Since(r0)
	virt := time.Duration(q.Now() - v0)
	if span != nil {
		s.tr.Pop(q)
		span.End()
	}
	resp.ID, resp.Op, resp.Trace, resp.Session = t.req.ID, t.req.Op, t.req.Trace, t.req.Session
	if resp.Stats != nil {
		// Stats responses carry the gateway's RPC counters alongside the
		// engine's, so remote clients see the whole stack in one report.
		resp.Stats.RPC = s.met.snapshot().wireReport()
		resp.Stats.Tenants = s.mgr.WireStats()
	}
	s.met.observeService(t.req.Op, queueWait, svc, virt, resp.Status)
	s.noteSlowOp(t.req.Op.String(), queueWait, svc, virt, span)
	if t.sess != nil {
		t.sess.MarkApplied(t.req.ID, resp.Status)
	}
	t.c.respond(t, resp)
}

// handleGroup runs one coalesced put group: a single bulk submission whose
// outcome answers every constituent request.
func (s *Server) handleGroup(q *sim.Proc, g *putGroup) {
	pairs := make([]nvme.KVPair, len(g.tasks))
	for i, t := range g.tasks {
		pairs[i] = nvme.KVPair{Key: t.req.Key, Value: t.req.Value}
	}
	// A coalesced group has many remote parents; the batch span stays local
	// and each constituent response echoes its own request's trace context.
	span := s.tr.StartRoot(q, "rpc:PutBatch", "rpc/PutBatch")
	if span != nil {
		s.tr.Push(q, span)
	}
	v0 := q.Now()
	r0 := time.Now()
	out := s.backend.BulkApply(q, g.keyspace, pairs)
	svc := time.Since(r0)
	virt := time.Duration(q.Now() - v0)
	if span != nil {
		s.tr.Pop(q)
		span.End()
	}
	s.noteSlowOp("PutBatch", 0, svc, virt, span)
	for _, t := range g.tasks {
		s.met.observeService(t.req.Op, r0.Sub(t.enq), svc, virt, out.Status)
		if t.sess != nil {
			t.sess.MarkApplied(t.req.ID, out.Status)
		}
		t.c.respond(t, &wire.Response{
			ID:      t.req.ID,
			Op:      t.req.Op,
			Trace:   t.req.Trace,
			Session: t.req.Session,
			Status:  out.Status,
			Err:     out.Err,
		})
	}
}

// noteSlowOp applies the slow-op budget: an op whose virtual service time
// exceeds the threshold is recorded in the bounded ring and, when a log
// writer is configured, dumped as one JSON line with the stage breakdown
// accumulated on its span (device stages roll up into the rpc span).
func (s *Server) noteSlowOp(op string, queue, real, virt time.Duration, span *obs.Span) {
	if s.cfg.SlowOpThreshold <= 0 || virt <= s.cfg.SlowOpThreshold {
		return
	}
	rec := SlowOp{
		Op:          op,
		QueueNs:     int64(queue),
		RealNs:      int64(real),
		VirtualNs:   int64(virt),
		ThresholdNs: int64(s.cfg.SlowOpThreshold),
	}
	if st := span.Stages(); len(st) > 0 {
		rec.Stages = make(map[string]int64, len(st))
		for stage, d := range st {
			rec.Stages[stage] = int64(d)
		}
	}
	rec = s.met.addSlowOp(rec)
	if s.cfg.SlowOpLog != nil {
		if b, err := json.Marshal(rec); err == nil {
			s.slowMu.Lock()
			s.cfg.SlowOpLog.Write(append(b, '\n'))
			s.slowMu.Unlock()
		}
	}
}
