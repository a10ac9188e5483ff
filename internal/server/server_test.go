package server

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kvcsd/internal/device"
	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/session"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// gateBackend blocks OpGet applies on a real channel (freezing virtual time
// and holding admission tokens) and records coalesced bulk submissions.
// Everything else completes immediately.
type gateBackend struct {
	gate    chan struct{}
	applies atomic.Int64

	mu    sync.Mutex
	bulks [][]nvme.KVPair
}

func newGateBackend() *gateBackend {
	return &gateBackend{gate: make(chan struct{})}
}

func (b *gateBackend) Apply(p *sim.Proc, req *wire.Request) *wire.Response {
	b.applies.Add(1)
	switch req.Op {
	case wire.OpGet:
		<-b.gate
	case wire.OpScan:
		p.Sleep(time.Millisecond) // simulated device work
	}
	return &wire.Response{Status: wire.StatusOK}
}

func (b *gateBackend) BulkApply(p *sim.Proc, keyspace string, pairs []nvme.KVPair) *wire.Response {
	b.mu.Lock()
	cp := make([]nvme.KVPair, len(pairs))
	copy(cp, pairs)
	b.bulks = append(b.bulks, cp)
	b.mu.Unlock()
	return &wire.Response{Status: wire.StatusOK}
}

func (b *gateBackend) BackgroundJobs() int     { return 0 }
func (b *gateBackend) Shutdown()               {}
func (b *gateBackend) Tracer() *obs.Tracer     { return nil }
func (b *gateBackend) Registry() *obs.Registry { return nil }

func (b *gateBackend) bulkCalls() [][]nvme.KVPair {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([][]nvme.KVPair(nil), b.bulks...)
}

// sendReq writes one request frame on a raw connection.
func sendReq(t *testing.T, nc net.Conn, req *wire.Request) {
	t.Helper()
	if err := wire.WriteRequest(nc, req); err != nil {
		t.Fatalf("write request %d: %v", req.ID, err)
	}
}

// readResp reads one (possibly streamed) response.
func readResp(t *testing.T, nc net.Conn) *wire.Response {
	t.Helper()
	var acc *wire.Response
	for {
		h, payload, err := wire.ReadFrame(nc)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		chunk, err := wire.DecodeResponse(h, payload)
		if err != nil {
			t.Fatalf("decode response: %v", err)
		}
		var done bool
		acc, done = wire.Accumulate(acc, chunk)
		if done {
			return acc
		}
	}
}

func waitInflight(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Inflight() != want {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d, want %d (timeout)", s.Inflight(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShedsOverCap holds the single admission token with a blocked
// request and verifies that further requests are refused immediately with
// StatusOverloaded — shed, not queued.
func TestAdmissionShedsOverCap(t *testing.T) {
	b := newGateBackend()
	cfg := DefaultConfig()
	cfg.MaxInflight = 1
	cfg.MaxPipeline = 8
	srv := New(sim.NewEnv(), b, cfg)
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

	// Request 1 takes the only token and blocks inside the backend.
	sendReq(t, nc, &wire.Request{ID: 1, Op: wire.OpGet, Keyspace: "ks", Key: []byte("k")})
	waitInflight(t, srv, 1)

	// Requests 2 and 3 must be shed while the token is held.
	sendReq(t, nc, &wire.Request{ID: 2, Op: wire.OpGet, Keyspace: "ks", Key: []byte("k")})
	sendReq(t, nc, &wire.Request{ID: 3, Op: wire.OpGet, Keyspace: "ks", Key: []byte("k")})
	for i := 0; i < 2; i++ {
		resp := readResp(t, nc)
		if resp.ID != 2 && resp.ID != 3 {
			t.Fatalf("unexpected response ID %d while request 1 is blocked", resp.ID)
		}
		if resp.Status != wire.StatusOverloaded {
			t.Fatalf("response %d: status %v, want Overloaded", resp.ID, resp.Status)
		}
		if resp.Status.Err() == nil || !errors.Is(resp.Status.Err(), wire.ErrOverloaded) {
			t.Fatalf("overloaded status did not map to wire.ErrOverloaded")
		}
	}

	// Release the gate: request 1 completes normally.
	close(b.gate)
	resp := readResp(t, nc)
	if resp.ID != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("blocked request finished as ID=%d status=%v", resp.ID, resp.Status)
	}

	m := srv.Metrics()
	if m.Shed != 2 || m.Accepted != 1 {
		t.Fatalf("metrics: shed=%d accepted=%d, want 2/1", m.Shed, m.Accepted)
	}
	waitInflight(t, srv, 0)
}

// TestWriteCoalescing gates the pipeline behind a blocked request, queues
// several puts to one keyspace, and verifies they execute as a single bulk
// submission whose outcome answers every constituent request.
func TestWriteCoalescing(t *testing.T) {
	b := newGateBackend()
	cfg := DefaultConfig()
	cfg.MaxInflight = 16
	srv := New(sim.NewEnv(), b, cfg)
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

	// Block the gateway mid-batch on a get...
	sendReq(t, nc, &wire.Request{ID: 1, Op: wire.OpGet, Keyspace: "ks", Key: []byte("k")})
	waitInflight(t, srv, 1)
	// ...while four puts to one keyspace pile up in the queue.
	for i := uint64(2); i <= 5; i++ {
		sendReq(t, nc, &wire.Request{ID: i, Op: wire.OpPut, Keyspace: "ks",
			Key: []byte{byte(i)}, Value: []byte{byte(i), byte(i)}})
	}
	waitInflight(t, srv, 5)
	close(b.gate)

	seen := make(map[uint64]wire.Status)
	for i := 0; i < 5; i++ {
		resp := readResp(t, nc)
		seen[resp.ID] = resp.Status
	}
	for id := uint64(1); id <= 5; id++ {
		if seen[id] != wire.StatusOK {
			t.Fatalf("request %d: status %v", id, seen[id])
		}
	}

	bulks := b.bulkCalls()
	if len(bulks) != 1 || len(bulks[0]) != 4 {
		t.Fatalf("bulk submissions = %v, want one of 4 pairs", bulks)
	}
	m := srv.Metrics()
	if m.Coalesced != 4 || m.Batches != 1 {
		t.Fatalf("metrics: coalesced=%d batches=%d, want 4/1", m.Coalesced, m.Batches)
	}
}

// TestSplitBatchGrouping is the white-box grouping unit test: puts group per
// keyspace in first-seen order; non-puts stay singles in batch order and lone
// puts follow them, with or without a group in the batch.
func TestSplitBatchGrouping(t *testing.T) {
	mk := func(op wire.Op, ks string) *session.Item {
		tk := &task{req: &wire.Request{Op: op, Keyspace: ks}}
		tk.Value = tk
		return &tk.Item
	}
	s := &Server{byKS: make(map[string]*putGroup)}
	describe := func(ts []*task) string {
		var names []string
		for _, tk := range ts {
			names = append(names, tk.req.Op.String()+"/"+tk.req.Keyspace)
		}
		return strings.Join(names, " ")
	}
	groups := s.splitBatch([]*session.Item{
		mk(wire.OpPut, "a"),
		mk(wire.OpGet, "a"),
		mk(wire.OpPut, "b"),
		mk(wire.OpPut, "a"),
		mk(wire.OpScan, "b"),
		mk(wire.OpPut, "c"),
	})
	if len(groups) != 1 || groups[0].keyspace != "a" || len(groups[0].tasks) != 2 {
		t.Fatalf("groups = %+v, want one group of 2 puts on a", groups)
	}
	if got, want := describe(s.singles), "Get/a Scan/b Put/b Put/c"; got != want {
		t.Fatalf("singles = %q, want %q", got, want)
	}
	// One put in the batch: nothing to group, and it still runs last.
	groups = s.splitBatch([]*session.Item{mk(wire.OpPut, "a"), mk(wire.OpGet, "a"), mk(wire.OpGet, "b")})
	if got, want := describe(s.singles), "Get/a Get/b Put/a"; len(groups) != 0 || got != want {
		t.Fatalf("one put: %d groups, singles = %q, want none and %q", len(groups), got, want)
	}
}

// TestSplitBatchAllocs: once the server has made its groups, splitting a
// batch of puts on two keyspaces allocates nothing — a put group costs no
// allocation of its own batch after batch.
func TestSplitBatchAllocs(t *testing.T) {
	var items []*session.Item
	for i := 0; i < 12; i++ {
		tk := &task{req: &wire.Request{Op: wire.OpPut, Keyspace: []string{"a", "b"}[i%2]}}
		tk.Value = tk
		items = append(items, &tk.Item)
	}
	s := &Server{byKS: make(map[string]*putGroup)}
	if groups := s.splitBatch(items); len(groups) != 2 || len(groups[0].tasks) != 6 {
		t.Fatalf("groups = %+v, want two of 6 puts", groups)
	}
	if n := testing.AllocsPerRun(20, func() { s.splitBatch(items) }); n != 0 {
		t.Fatalf("splitBatch allocates %v times per batch, want 0", n)
	}
}

// TestGarbageBytesDropConnection feeds a non-protocol byte stream and
// verifies the server drops that connection but keeps serving others.
func TestGarbageBytesDropConnection(t *testing.T) {
	b := newGateBackend()
	close(b.gate) // nothing blocks
	srv := New(sim.NewEnv(), b, DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()

	bad, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer bad.Close()
	// More than one header's worth of non-protocol bytes, so the framing
	// check fires immediately.
	if _, err := bad.Write([]byte("GET /index.html HTTP/1.1\r\nHost: nope\r\nAccept: */*\r\nUser-Agent: junk\r\n\r\n")); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	// The server must cut the connection, not hang or crash.
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if _, err := bad.Read(buf); err == nil {
		if _, err = bad.Read(buf); err == nil {
			t.Fatal("garbage connection still open and talking")
		}
	}

	// A well-formed connection still works.
	good, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial good: %v", err)
	}
	defer good.Close()
	sendReq(t, good, &wire.Request{ID: 9, Op: wire.OpPing})
	if resp := readResp(t, good); resp.Status != wire.StatusOK {
		t.Fatalf("ping after garbage: %v", resp.Status)
	}
	if srv.Metrics().BadFrames == 0 {
		t.Fatal("bad frame not counted")
	}
}

// TestGracefulDrain verifies Close answers all admitted work, refuses late
// requests, and shuts the simulation down without deadlocking.
func TestGracefulDrain(t *testing.T) {
	opts := device.DefaultOptions()
	opts.Seed = 7
	srv := NewDevice(opts, DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}

	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	sendReq(t, nc, &wire.Request{ID: 1, Op: wire.OpCreateKeyspace, Keyspace: "d"})
	if resp := readResp(t, nc); resp.Status != wire.StatusOK {
		t.Fatalf("create: %v", resp.Status)
	}
	for i := uint64(2); i < 10; i++ {
		sendReq(t, nc, &wire.Request{ID: i, Op: wire.OpPut, Keyspace: "d",
			Key: []byte{byte(i)}, Value: []byte("v")})
	}
	for i := 0; i < 8; i++ {
		if resp := readResp(t, nc); resp.Status != wire.StatusOK {
			t.Fatalf("put: %v", resp.Status)
		}
	}

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain")
	}
	// Idempotent.
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	// A request on the old connection is either refused with ShuttingDown
	// or the connection is already cut; both are acceptable drain outcomes.
	if err := wire.WriteRequest(nc, &wire.Request{ID: 99, Op: wire.OpPing}); err == nil {
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if h, payload, err := wire.ReadFrame(nc); err == nil {
			resp, err := wire.DecodeResponse(h, payload)
			if err != nil {
				t.Fatalf("decode post-close response: %v", err)
			}
			if resp.Status != wire.StatusShuttingDown {
				t.Fatalf("post-close status %v, want ShuttingDown", resp.Status)
			}
		}
	}

	// New connections are refused outright.
	if c2, err := net.Dial("tcp", addr.String()); err == nil {
		c2.Close()
		t.Fatal("listener still accepting after Close")
	}
}

// TestPipelinedOutOfOrderCompletion verifies responses leave in completion
// order, not arrival order: within one batch a cheap ping sent after an
// expensive scan (1ms of virtual device time) must be answered first, on
// the same connection, distinguished by request ID.
func TestPipelinedOutOfOrderCompletion(t *testing.T) {
	b := newGateBackend()
	srv := New(sim.NewEnv(), b, DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()

	gate, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer gate.Close()
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()

	// Hold the gateway in batch 1 with a blocked get, so the scan and ping
	// both queue up and are admitted into the same batch.
	sendReq(t, gate, &wire.Request{ID: 1, Op: wire.OpGet, Keyspace: "ks", Key: []byte("k")})
	waitInflight(t, srv, 1)
	sendReq(t, nc, &wire.Request{ID: 2, Op: wire.OpScan, Keyspace: "ks"})
	sendReq(t, nc, &wire.Request{ID: 3, Op: wire.OpPing})
	waitInflight(t, srv, 3)
	close(b.gate)

	// The ping (zero virtual cost) completes before the scan (1ms virtual),
	// so its response overtakes on the shared connection.
	first := readResp(t, nc)
	second := readResp(t, nc)
	if first.ID != 3 || second.ID != 2 {
		t.Fatalf("response order = %d,%d; want ping (3) before scan (2)", first.ID, second.ID)
	}
	if resp := readResp(t, gate); resp.ID != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("gated get: %+v", resp)
	}
}
