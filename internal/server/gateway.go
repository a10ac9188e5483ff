package server

import (
	"encoding/json"
	"time"

	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/session"
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
		s.pump(p)
		items, ok := s.sched.NextBatch(s.cfg.MaxBatch)
		if len(items) > 0 {
			s.runBatch(p, items)
		}
		if !ok {
			break
		}
	}
	// Drain: intake is closed and the scheduler is empty. Finish background
	// work and let the status waits under way park or return, then stop the
	// device dispatch loops — which answers the waits still parked — so the
	// simulation can end.
	s.pump(p)
	s.backend.Shutdown()
	// Parked handler procs have no wake-up pending: let them return, so the
	// simulation ends with nothing blocked.
	s.handlers.Release()
}

// pump advances virtual time in small slices while no request is queued but
// the simulation has work of its own: background jobs (compaction, index
// builds), or a status wait on its way to park or back from it (some proc
// besides the gateway has an event). Without it that work, and the waits on
// it, would stay frozen until the next request arrived.
func (s *Server) pump(p *sim.Proc) {
	for s.sched.Queued() == 0 && (s.backend.BackgroundJobs() > 0 || s.waits > 0 && s.env.Busy()) {
		p.Sleep(backgroundSlice)
	}
}

// rpcNames holds, per opcode, the rpc span's name and op label, built once:
// the request path would otherwise concatenate both for every request,
// tracing on or off.
var rpcNames = func() (t [256]struct{ span, op string }) {
	for i := range t {
		s := wire.Op(i).String()
		t[i].span, t[i].op = "rpc:"+s, "rpc/"+s
	}
	return t
}()

// putGroup is a set of same-keyspace puts coalesced into one bulk device
// submission. The server reuses its groups batch after batch (splitBatch),
// so a group's slices keep their capacity.
type putGroup struct {
	keyspace string
	tasks    []*task
	pairs    []nvme.KVPair // the tasks' pairs, as handleGroup submits them
}

// handler is the state of one resident handler proc (sim.ResidentProcs): the
// unit of a batch it has been handed — a request or a coalesced put group.
// Exactly one of t and g is set while it runs.
type handler struct {
	t *task
	g *putGroup
}

// dispatch hands one unit of the running batch to a resident handler proc.
func (s *Server) dispatch(t *task, g *putGroup) {
	s.pending++
	h := s.handlers.Dispatch()
	h.t, h.g = t, g
}

// serve is a handler proc's body: run the unit in hand and report it done.
// The handler that finishes a batch's last unit wakes the gateway. A status
// wait (wire.FlagWait) parks until its job ends, so it leaves its batch as it
// starts and counts in s.waits instead: a parked wait never holds the
// gateway, and the batches behind it keep their admission instants.
func (s *Server) serve(q *sim.Proc, h *handler) {
	wait := h.t != nil && h.t.req.Wait
	if wait {
		s.waits++
		s.unitDone(q)
	}
	if h.t != nil {
		s.handle(q, h.t)
	} else {
		s.handleGroup(q, h.g)
	}
	h.t, h.g = nil, nil
	if wait {
		s.waits--
	} else {
		s.unitDone(q)
	}
}

// unitDone counts one unit of the running batch out and wakes the gateway
// when it was the last.
func (s *Server) unitDone(q *sim.Proc) {
	if s.pending--; s.pending == 0 {
		q.Env().Wake(s.gw)
	}
}

// runBatch executes one admitted batch: coalescable puts become one bulk
// submission per keyspace, everything else runs on its own handler proc. All
// handlers start at the same virtual instant, groups first and then singles
// in batch order; the gateway parks until the last of them finishes, so
// batches never interleave.
func (s *Server) runBatch(p *sim.Proc, items []*session.Item) {
	groups := s.splitBatch(items)
	for _, g := range groups {
		s.met.addCoalesced(len(g.tasks))
		s.dispatch(nil, g)
	}
	for _, t := range s.singles {
		s.dispatch(t, nil)
	}
	p.Block()
}

// splitBatch sorts a batch into s.singles and per-keyspace put groups (two or
// more puts), preserving first-seen order so the grouping is deterministic for
// a given batch; a lone put gains nothing from the bulk path and runs after
// the other singles. A batch with fewer than two puts — every batch of a read
// workload — has nothing to group. Groups, like the other scratch, are the
// server's and valid until the next call: runBatch waits for every unit of a
// batch before it splits the next.
func (s *Server) splitBatch(items []*session.Item) []*putGroup {
	s.singles, s.puts = s.singles[:0], s.puts[:0]
	for _, it := range items {
		if t := it.Value.(*task); t.req.Op == wire.OpPut {
			s.puts = append(s.puts, t)
		} else {
			s.singles = append(s.singles, t)
		}
	}
	if len(s.puts) < 2 {
		s.singles = append(s.singles, s.puts...)
		return nil
	}
	clear(s.byKS)
	n := 0 // groups of s.pool in use, in first-seen order
	for _, t := range s.puts {
		g, ok := s.byKS[t.req.Keyspace]
		if !ok {
			if n == len(s.pool) {
				s.pool = append(s.pool, &putGroup{})
			}
			g, n = s.pool[n], n+1
			g.keyspace, g.tasks = t.req.Keyspace, g.tasks[:0]
			s.byKS[t.req.Keyspace] = g
		}
		g.tasks = append(g.tasks, t)
	}
	s.groups = s.groups[:0]
	for _, g := range s.pool[:n] {
		if len(g.tasks) < 2 {
			s.singles = append(s.singles, g.tasks...)
			continue
		}
		s.groups = append(s.groups, g)
	}
	return s.groups
}

// handle runs one request in its own sim proc. The request's trace context
// (propagated in the frame header) seeds the rpc span, so device spans the
// request causes are descendants of the remote client span that sent it.
func (s *Server) handle(q *sim.Proc, t *task) {
	// One clock read ends the queue stage and starts the service stage.
	r0 := time.Now()
	queueWait := r0.Sub(t.enq)
	names := &rpcNames[t.req.Op]
	span := s.tr.StartRemoteRoot(q, names.span, names.op, t.req.Trace.TraceID, t.req.Trace.SpanID)
	if span != nil {
		s.tr.Push(q, span)
	}
	v0 := q.Now()
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
		resp.Stats.RPC = s.met.wireReport()
		resp.Stats.Tenants = s.mgr.WireStats()
	}
	s.met.observeService(t.req.Op, queueWait, svc, virt, resp.Status)
	s.noteSlowOp(t.req.Op.String(), queueWait, svc, virt, span)
	if t.Sess != nil {
		t.Sess.MarkApplied(t.req.ID, resp.Status)
	}
	t.resp = resp
	t.c.out <- t
}

// handleGroup runs one coalesced put group: a single bulk submission whose
// outcome answers every constituent request.
func (s *Server) handleGroup(q *sim.Proc, g *putGroup) {
	pairs := g.pairs[:0]
	for _, t := range g.tasks {
		pairs = append(pairs, nvme.KVPair{Key: t.req.Key, Value: t.req.Value})
	}
	g.pairs = pairs
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
		if t.Sess != nil {
			t.Sess.MarkApplied(t.req.ID, out.Status)
		}
		t.resp = &wire.Response{
			ID:      t.req.ID,
			Op:      t.req.Op,
			Trace:   t.req.Trace,
			Session: t.req.Session,
			Status:  out.Status,
			Err:     out.Err,
		}
		t.c.out <- t
	}
	clear(g.tasks) // the tasks and their pooled frames go back to their pools
	clear(pairs)
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
