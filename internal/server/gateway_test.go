package server

import (
	"net"
	"testing"
	"time"

	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/session"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// TestDecodeStageExcludesSocketWait is the regression test for the decode
// clock: it used to start before ReadFrame, so the stage held however long the
// connection sat idle before the request arrived.
func TestDecodeStageExcludesSocketWait(t *testing.T) {
	b := newGateBackend()
	close(b.gate)
	srv := New(sim.NewEnv(), b, DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	time.Sleep(50 * time.Millisecond)
	sendReq(t, nc, &wire.Request{ID: 1, Op: wire.OpPing})
	if resp := readResp(t, nc); resp.Status != wire.StatusOK {
		t.Fatalf("ping: %v", resp.Status)
	}
	if d := srv.Metrics().PerOp[wire.OpPing].Decode; d <= 0 || d >= 5*time.Millisecond {
		t.Fatalf("decode stage of a request sent 50 ms after connect = %v, want under 5 ms", d)
	}
}

// orderBackend answers every verb at once with one shared response and
// records the order requests reach it in.
type orderBackend struct {
	resp  wire.Response
	order []uint64
}

func (b *orderBackend) Apply(_ *sim.Proc, req *wire.Request) *wire.Response {
	b.order = append(b.order, req.ID)
	return &b.resp
}
func (b *orderBackend) BulkApply(*sim.Proc, string, []nvme.KVPair) *wire.Response { return &b.resp }
func (b *orderBackend) BackgroundJobs() int                                       { return 0 }
func (b *orderBackend) Shutdown()                                                 {}
func (b *orderBackend) Tracer() *obs.Tracer                                       { return nil }
func (b *orderBackend) Registry() *obs.Registry                                   { return nil }

// gatewayRig is a server's simulation side alone — no sockets, no scheduler —
// with a driver proc standing in for the gateway.
type gatewayRig struct {
	s *Server
	b *orderBackend
	c *conn
}

func newGatewayRig(env *sim.Env, window int) *gatewayRig {
	b := &orderBackend{resp: wire.Response{Status: wire.StatusOK}}
	s := &Server{env: env, backend: b, met: newMetrics(), byKS: make(map[string]*putGroup)}
	s.handlers = sim.NewResidentProcs(env, "rpc-handler", s.serve)
	return &gatewayRig{s: s, b: b, c: &conn{s: s, out: make(chan *task, window)}}
}

func (g *gatewayRig) batch(ids ...uint64) []*session.Item {
	items := make([]*session.Item, len(ids))
	for i, id := range ids {
		t := &task{c: g.c, req: &wire.Request{ID: id, Op: wire.OpPing}}
		t.Value = t
		items[i] = &t.Item
	}
	return items
}

// run executes one batch from the driver proc and drains its responses.
func (g *gatewayRig) run(p *sim.Proc, items []*session.Item) {
	g.s.runBatch(p, items)
	for range items {
		<-g.c.out
	}
}

// stop lets the parked handlers return so the simulation can end.
func (g *gatewayRig) stop() { g.s.handlers.Release() }

// TestResidentHandlersKeepBatchOrder: the units of a batch reach the backend
// in batch order whether their handlers were just spawned, all reused, or a
// mix — and a batch never grows the set of handlers beyond the widest one.
func TestResidentHandlersKeepBatchOrder(t *testing.T) {
	env := sim.NewEnv()
	g := newGatewayRig(env, 8)
	env.Go("driver", func(p *sim.Proc) {
		g.s.gw = p
		defer g.stop()
		for _, ids := range [][]uint64{{1, 2, 3}, {4, 5, 6}, {7}, {8, 9, 10, 11, 12}, {13, 14}} {
			g.b.order = g.b.order[:0]
			g.run(p, g.batch(ids...))
			if len(g.b.order) != len(ids) {
				t.Errorf("batch %v: backend saw %v", ids, g.b.order)
				return
			}
			for i := range ids {
				if g.b.order[i] != ids[i] {
					t.Errorf("batch %v reached the backend as %v", ids, g.b.order)
					return
				}
			}
		}
		if n := g.s.handlers.Idle(); n != 5 {
			t.Errorf("%d handler procs after batches of at most 5, want 5", n)
		}
	})
	env.Run()
}

// TestResidentDispatchAllocs is the allocation budget of the gateway's
// dispatch: handing a no-op verb to a parked handler, running it, queueing its
// response and waking the gateway allocates nothing.
func TestResidentDispatchAllocs(t *testing.T) {
	env := sim.NewEnv()
	g := newGatewayRig(env, 1)
	var allocs float64
	env.Go("driver", func(p *sim.Proc) {
		g.s.gw = p
		defer g.stop()
		items := g.batch(1)
		g.b.order = make([]uint64, 0, 4096)
		for i := 0; i < 64; i++ { // spawn the handler, grow the histograms
			g.run(p, items)
		}
		allocs = testing.AllocsPerRun(200, func() { g.run(p, items) })
	})
	env.Run()
	if allocs != 0 {
		t.Fatalf("dispatch of a no-op verb: %.1f allocs/op, want 0", allocs)
	}
}
