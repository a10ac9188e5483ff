// Package server exposes a simulated KV-CSD (single device or sharded
// array) over TCP using the wire protocol, so many real remote clients can
// drive one simulation concurrently.
//
// The hard problem the package solves is the clock boundary: clients live in
// wall-clock time on real sockets, while the device lives in virtual time
// inside a cooperatively-scheduled simulation that must be driven from one
// goroutine. The bridge is a gateway process inside the sim:
//
//   - socket goroutines decode frames and push admitted requests onto a
//     buffered channel;
//   - the gateway proc blocks on that channel (freezing virtual time while
//     the server is idle — an idle server spends no simulated nanoseconds),
//     then drains whatever has accumulated into a batch and runs one sim
//     proc per request, joining the batch before taking the next;
//   - completions stream back to per-connection writer goroutines, so
//     responses leave in completion order, not arrival order — the request
//     ID in every frame is what lets clients pipeline through that.
//
// Backpressure is explicit and layered: a per-connection pipeline window
// (slow readers block their own socket, nobody else's), a per-session
// outstanding cap, per-tenant per-lane queue caps, and a server-wide
// admission cap enforced by the fair scheduler. Beyond any cap, requests are
// refused immediately with StatusOverloaded — shed, not queued unboundedly —
// so a burst cannot grow memory or latency without bound.
//
// Between the sockets and the gateway sits the session layer
// (internal/session): connections may open resumable, tenant-scoped sessions
// via OpHello, and admitted requests are ordered by a deficit-weighted-fair
// scheduler (priority lanes, per-tenant DRR) instead of a FIFO channel, so
// one abusive tenant cannot starve the rest. Responses that cannot reach a
// dead or kicked connection spill into the session's backlog and replay on
// resume.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kvcsd/internal/array"
	"kvcsd/internal/device"
	"kvcsd/internal/obs"
	"kvcsd/internal/session"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// chunkPairs is how many pairs one streamed frame (FlagMore) of a large scan
// result carries.
const chunkPairs = 128

// backgroundSlice is the virtual-time slice the gateway sleeps while the
// socket side is idle but device background work (compaction, index builds)
// is still running, or a status wait still has work on its way.
const backgroundSlice = 500 * time.Microsecond

// Config tunes the server's concurrency and batching.
type Config struct {
	// MaxInflight is the server-wide admission cap: requests executing or
	// awaiting execution. Beyond it, requests are shed with
	// StatusOverloaded. Default 256.
	MaxInflight int
	// MaxPipeline is the per-connection window of outstanding requests; a
	// connection that exceeds it stops being read until responses drain.
	// Default 64.
	MaxPipeline int
	// MaxBatch caps how many queued requests the gateway admits into one
	// virtual-time batch. Default: MaxInflight.
	MaxBatch int
	// DrainTimeout bounds Close: connections that cannot absorb their final
	// responses within it are cut. Default 5s (real time).
	DrainTimeout time.Duration
	// SlowOpThreshold, when positive, flags any op whose virtual service
	// time exceeds it: the op is counted, kept in a bounded in-memory ring
	// (served at /slowops by the telemetry endpoint), and — when SlowOpLog
	// is set — dumped as one JSON line with its full stage breakdown.
	// Virtual time is the budget clock because it is deterministic: the same
	// workload flags the same ops on every run.
	SlowOpThreshold time.Duration
	// SlowOpLog receives one JSON line per over-budget op (nil = ring only).
	SlowOpLog io.Writer
	// Replicated makes an array backend create consensus-backed keyspaces:
	// writes commit at quorum through per-shard leaders, reads go through the
	// leader's read-index, and the Stats ring table carries live leaders and
	// epochs. Ignored by device backends.
	Replicated bool
	// QoS tunes the session layer: tenant weights, lane weights, per-tenant
	// and per-session caps, backlog sizing. Zero values take the session
	// package defaults, which reproduce the old single-pool behavior for a
	// single tenant.
	QoS session.Config
}

// DefaultConfig returns the default server tuning.
func DefaultConfig() Config {
	return Config{
		MaxInflight:  256,
		MaxPipeline:  64,
		DrainTimeout: 5 * time.Second,
	}
}

func (c *Config) normalize() {
	d := DefaultConfig()
	if c.MaxInflight <= 0 {
		c.MaxInflight = d.MaxInflight
	}
	if c.MaxPipeline <= 0 {
		c.MaxPipeline = d.MaxPipeline
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = c.MaxInflight
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = d.DrainTimeout
	}
}

// task is one frame's worth of work on its way from a connection's reader to
// its writer: an admitted request traveling through the scheduler and the
// gateway, a reply made on the socket side (shed, malformed, handshake), or
// pre-framed bytes to replay. Tasks are pooled; an admitted task is itself
// the scheduler's queue entry (the embedded Item, whose Value is the task),
// and it owns the request's frame body until the writer releases both.
type task struct {
	session.Item // Sess (nil when unsessioned), Tenant, Lane, Cost

	c *conn
	// req is the decoded request, pooled with its frame body; nil on a reply
	// that was made without one.
	req *wire.Request
	// Exactly one of resp and raw is set by the time the task reaches the
	// writer: resp is encoded there, raw is pre-framed bytes (a backlog replay
	// or a duplicate re-serve) written verbatim.
	resp *wire.Response
	raw  []byte
	id   uint64
	// enq is when decoding ended and the request was handed to the scheduler.
	enq time.Time
	// admitted marks a request that holds an admission slot and is billed to
	// its tenant.
	admitted bool
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

func newTask(c *conn) *task {
	t := taskPool.Get().(*task)
	t.c = c
	return t
}

// free releases the request's frame body and returns the task to the pool.
func (t *task) free() {
	if t.req != nil {
		t.req.Release()
	}
	*t = task{}
	taskPool.Put(t)
}

// Server bridges TCP connections into one simulation.
type Server struct {
	cfg     Config
	env     *sim.Env
	backend Backend
	met     *metrics
	tr      *obs.Tracer

	ln net.Listener
	// mgr owns tenants and resumable sessions; sched is the weighted-fair
	// admission queue between the socket goroutines and the gateway proc.
	mgr      *session.Manager
	sched    *session.Scheduler
	inflight atomic.Int64
	draining atomic.Bool
	started  bool

	connMu sync.Mutex
	conns  map[*conn]struct{}

	slowMu sync.Mutex // serializes SlowOpLog writes

	// Gateway state, touched only inside the simulation: the gateway proc,
	// the resident handler procs parked for work, how many dispatched units
	// of the running batch have not finished, how many status waits are in
	// flight outside any batch, and scratch for splitting a batch (see
	// gateway.go).
	gw       *sim.Proc
	handlers *sim.ResidentProcs[handler]
	pending  int
	waits    int
	singles  []*task
	puts     []*task
	byKS     map[string]*putGroup
	pool     []*putGroup // every group made, reused batch after batch
	groups   []*putGroup // the running batch's groups

	telemetry *telemetryServer

	simDone    chan struct{}
	acceptDone chan struct{}
	closeOnce  sync.Once
}

// New wires a server around an existing environment and backend. The
// environment must not be running yet: the server registers its gateway
// process at construction and takes over driving env.Run when Start is
// called.
func New(env *sim.Env, b Backend, cfg Config) *Server {
	cfg.normalize()
	s := &Server{
		cfg:        cfg,
		env:        env,
		backend:    b,
		met:        newMetrics(),
		tr:         b.Tracer(),
		mgr:        session.NewManager(cfg.QoS),
		sched:      session.NewScheduler(cfg.QoS, cfg.MaxInflight),
		conns:      make(map[*conn]struct{}),
		byKS:       make(map[string]*putGroup),
		simDone:    make(chan struct{}),
		acceptDone: make(chan struct{}),
	}
	s.gw = env.Go("gateway", s.gateway)
	s.handlers = sim.NewResidentProcs(env, "rpc-handler", s.serve)
	return s
}

// NewDevice builds a server over one simulated device.
func NewDevice(opts device.Options, cfg Config) *Server {
	env := sim.NewEnv()
	return New(env, newBackend(env, newDeviceFleet(env, opts)), cfg)
}

// NewArray builds a server over a sharded, replicated device array.
func NewArray(opts array.Options, cfg Config) *Server {
	env := sim.NewEnv()
	return New(env, newBackend(env, arrayFleet{array.New(env, opts), cfg.Replicated}), cfg)
}

// Env returns the simulation environment the server drives.
func (s *Server) Env() *sim.Env { return s.env }

// Backend returns the storage backend.
func (s *Server) Backend() Backend { return s.backend }

// Metrics returns a snapshot of the server's RPC counters.
func (s *Server) Metrics() MetricsSnapshot { return s.met.snapshot() }

// SessionManager exposes the tenant/session table (telemetry, tests).
func (s *Server) SessionManager() *session.Manager { return s.mgr }

// Inflight returns the number of admitted requests not yet answered.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// Addr returns the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Start binds addr, starts the simulation and the accept loop, and returns
// the bound address (useful with ":0").
func (s *Server) Start(addr string) (net.Addr, error) {
	if s.started {
		return nil, fmt.Errorf("server: Start called twice")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.started = true
	s.ln = ln
	go s.runSim()
	go s.acceptLoop()
	return ln.Addr(), nil
}

func (s *Server) runSim() {
	defer close(s.simDone)
	s.env.Run()
}

func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.draining.Load() {
			nc.Close()
			continue
		}
		c := &conn{
			s:      s,
			nc:     nc,
			out:    make(chan *task, s.cfg.MaxPipeline),
			window: make(chan struct{}, s.cfg.MaxPipeline),
		}
		s.connMu.Lock()
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		go c.writeLoop()
		go c.readLoop()
	}
}

// Close drains and stops the server: it refuses new work, drains every
// request parked in the fair scheduler's per-session/per-tenant queues
// through the gateway, waits for every admitted response to be written or
// spilled (bounded by DrainTimeout), runs device background work to
// completion, shuts the simulation down, and closes all sockets. Safe to
// call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		if !s.started {
			return
		}
		s.ln.Close()
		// Bound the drain: a client that stops reading cannot hold its
		// responses on the socket past the deadline — the write fails and the
		// response spills to its session backlog instead.
		deadline := time.Now().Add(s.cfg.DrainTimeout)
		s.connMu.Lock()
		for c := range s.conns {
			c.nc.SetWriteDeadline(deadline)
		}
		s.connMu.Unlock()
		// Refuse further admissions. Requests already parked in the
		// scheduler's queues keep draining through NextBatch — shutdown
		// answers parked work, it does not strand it — and once the scheduler
		// is empty the gateway finishes background work and stops the sim.
		s.sched.CloseIntake()
		<-s.simDone
		// Every admitted request has now produced a response; wait (bounded)
		// for the writers to put them on the wire or spill them.
		for s.inflight.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		// Cut surviving connections (readers parked in ReadFrame).
		s.connMu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.connMu.Unlock()
		<-s.acceptDone
		if s.telemetry != nil {
			s.telemetry.close()
		}
	})
	return nil
}

// conn is one client connection: a reader goroutine (framing, session
// handshakes, admission), a writer goroutine (encoding, slot release,
// backlog spill), and a window semaphore bounding requests outstanding
// between them.
type conn struct {
	s  *Server
	nc net.Conn
	// out carries tasks whose response is ready to the writer; capacity
	// MaxPipeline so enqueues never block (each queued task holds a window
	// slot), which is what keeps the sim side from ever blocking on it.
	out chan *task
	// window is the per-connection pipeline semaphore: the reader takes a
	// slot per request (blocking — per-connection backpressure), the writer
	// returns it once the response is on the wire.
	window chan struct{}
	// owed counts responses promised but not yet written; only the reader
	// increments it, so after the reader exits it can only fall.
	owed sync.WaitGroup
	dead atomic.Bool
	// sess is the session opened by OpHello on this connection; reader-owned.
	sess *session.Session
	// wbuf is the writer's frame buffer, kept between responses.
	wbuf []byte
}

// reply queues a response made on the socket side (shed, malformed,
// draining, handshake) without touching the simulation; the task's request,
// if it has one, is released by the writer like any other. Caller must hold a
// window slot.
func (c *conn) reply(t *task, resp *wire.Response) {
	t.resp = resp
	c.owed.Add(1)
	c.out <- t
}

// replay queues pre-framed bytes (a backlog entry or a duplicate's spilled
// response) to be written verbatim. Caller must hold a window slot.
func (c *conn) replay(t *task, id uint64, frames []byte, sess *session.Session, lane wire.Lane) {
	t.raw, t.id = frames, id
	t.Sess, t.Lane = sess, lane
	c.owed.Add(1)
	c.out <- t
}

func (c *conn) readLoop() {
	defer func() {
		if c.sess != nil {
			c.sess.Detach(c)
		}
		c.nc.Close()
		// Close out only after every owed response has been queued and
		// written; admitted requests still in the sim finish against a
		// possibly-dead socket and spill into their session's backlog.
		go func() {
			c.owed.Wait()
			close(c.out)
		}()
	}()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		h, payload, err := wire.ReadFrame(br)
		if err != nil {
			// A framing error is fatal for the connection: with the length
			// prefix untrusted there is no way to resynchronize the stream.
			switch {
			case errors.Is(err, wire.ErrBadMagic), errors.Is(err, wire.ErrBadVersion),
				errors.Is(err, wire.ErrBadKind), errors.Is(err, wire.ErrFrameTooLarge),
				errors.Is(err, wire.ErrFrameCorrupt):
				c.s.met.addBadFrame()
			}
			return
		}
		// The decode clock starts with the frame in hand: time spent waiting
		// for a client to send is not the server's.
		t0 := time.Now()
		// Take a pipeline slot; the writer returns it after the response.
		c.window <- struct{}{}
		t := newTask(c)
		if h.Kind != wire.KindRequest {
			c.reply(t, &wire.Response{ID: h.ID, Op: h.Op, Trace: h.Trace, Status: wire.StatusBadRequest, Err: "expected request frame"})
			continue
		}
		req, derr := wire.DecodeRequest(h, payload)
		// One clock read closes the decode stage and opens the queue stage.
		t.enq = time.Now()
		c.s.met.observeDecode(h.Op, t.enq.Sub(t0))
		if derr != nil {
			c.s.met.addBadFrame()
			c.reply(t, &wire.Response{ID: h.ID, Op: h.Op, Trace: h.Trace, Status: wire.StatusBadRequest, Err: derr.Error()})
			continue
		}
		t.req, t.id = req, req.ID
		if req.Op == wire.OpHello {
			// The handshake is handled socket-side: it never enters the fair
			// scheduler, so an overloaded server still accepts resumes.
			c.handleHello(t)
			continue
		}
		// Classify: a session token is honored only on the connection that
		// opened it (the handshake is the authorization boundary).
		var sess *session.Session
		tenant := c.s.mgr.Anon()
		var class uint8
		if c.sess != nil {
			tenant = c.sess.Tenant()
			class = c.sess.Class()
			if req.Session == c.sess.Token() {
				sess = c.sess
			}
		}
		lane := session.ResolveLane(req.Op, req.Lane, class)
		if req.Session != 0 && sess == nil {
			c.reply(t, &wire.Response{ID: req.ID, Op: req.Op, Trace: req.Trace, Session: req.Session,
				Status: wire.StatusSessionUnknown, Err: "session token not opened on this connection"})
			continue
		}
		if c.s.draining.Load() {
			c.s.met.addRefused()
			tenant.NoteShed(lane, session.CauseDraining)
			c.reply(t, &wire.Response{ID: req.ID, Op: req.Op, Trace: req.Trace, Session: req.Session, Status: wire.StatusShuttingDown})
			continue
		}
		if sess != nil {
			// Duplicate suppression, strongest evidence first: a spilled
			// response re-serves its exact bytes; a known outcome of a
			// non-idempotent op re-serves the status without re-applying; an
			// id still in flight is dropped silently (the original's response
			// answers it).
			if frames, ok := sess.LookupFrame(req.ID); ok {
				c.replay(t, req.ID, frames, sess, lane)
				continue
			}
			if st, ok := sess.LookupApplied(req.ID); ok && !req.Op.Idempotent() {
				c.reply(t, &wire.Response{ID: req.ID, Op: req.Op, Trace: req.Trace, Session: req.Session, Status: st})
				continue
			}
			dup, full := sess.BeginPending(req.ID)
			if dup {
				t.free()
				<-c.window
				continue
			}
			if full {
				c.s.met.addShed()
				tenant.NoteShed(lane, session.CauseSession)
				c.reply(t, &wire.Response{ID: req.ID, Op: req.Op, Trace: req.Trace, Session: req.Session,
					Status: wire.StatusOverloaded, Err: "admission refused: " + session.CauseSession.String()})
				continue
			}
		}
		// Admission: owed and inflight are charged before Enqueue so the sim
		// side can never complete a task the reader has not counted.
		c.owed.Add(1)
		c.s.inflight.Add(1)
		t.Item = session.Item{Sess: sess, Tenant: tenant, Lane: lane, Cost: session.RequestCost(req), Value: t}
		t.admitted = true
		cause := c.s.sched.Enqueue(&t.Item)
		if cause != session.CauseNone {
			c.s.inflight.Add(-1)
			if sess != nil {
				sess.AbortPending(req.ID)
			}
			tenant.NoteShed(lane, cause)
			status := wire.StatusOverloaded
			if cause == session.CauseDraining {
				status = wire.StatusShuttingDown
				c.s.met.addRefused()
			} else {
				c.s.met.addShed()
			}
			// Reuse the owed slot charged above for the shed reply.
			t.admitted = false
			t.resp = &wire.Response{ID: req.ID, Op: req.Op, Trace: req.Trace, Session: req.Session,
				Status: status, Err: "admission refused: " + cause.String()}
			c.out <- t
			continue
		}
		c.s.met.addAccepted()
		tenant.NoteAdmitted(lane)
	}
}

// handleHello opens or resumes a session, entirely on the socket side. The
// previous connection (if any) is kicked so its in-flight responses spill to
// the backlog, the handshake reply is queued, and then every unreplayed
// backlog entry is queued verbatim — original order, byte-identical frames.
// Each replay frame takes a window slot like any other response, so a huge
// backlog applies backpressure to the resuming reader instead of growing the
// out channel.
func (c *conn) handleHello(t *task) {
	req := t.req
	resp := &wire.Response{ID: req.ID, Op: req.Op, Trace: req.Trace}
	if req.Hello == nil {
		resp.Status, resp.Err = wire.StatusBadRequest, "hello without handshake body"
		c.reply(t, resp)
		return
	}
	sess, replay, resumed, prev, err := c.s.mgr.Hello(req.Hello, c)
	if err != nil {
		if errors.Is(err, session.ErrTooManySessions) {
			resp.Status = wire.StatusOverloaded
		} else {
			resp.Status = wire.StatusBadRequest
		}
		resp.Err = err.Error()
		c.reply(t, resp)
		return
	}
	if prevC, ok := prev.(*conn); ok && prevC != nil && prevC != c {
		// Kick the session's old connection: marking it dead first makes its
		// writer spill (not write) anything still queued for it.
		prevC.dead.Store(true)
		prevC.nc.Close()
	}
	if old := c.sess; old != nil && old != sess {
		old.Detach(c)
	}
	c.sess = sess
	resp.Status = wire.StatusOK
	resp.Session = sess.Token()
	resp.Hello = &wire.HelloReply{Token: sess.Token(), Resumed: resumed, Replayed: uint32(len(replay))}
	c.reply(t, resp)
	for _, e := range replay {
		c.window <- struct{}{}
		c.replay(newTask(c), e.ID, e.Frames, sess, wire.LaneNormal)
	}
}

func (c *conn) writeLoop() {
	defer func() {
		c.nc.Close()
		c.s.connMu.Lock()
		delete(c.s.conns, c)
		c.s.connMu.Unlock()
	}()
	for t := range c.out {
		t0 := time.Now()
		frames := t.raw
		if frames == nil {
			c.wbuf = wire.AppendResponseFrames(c.wbuf[:0], t.resp, chunkPairs)
			frames = c.wbuf
		}
		delivered := false
		if !c.dead.Load() {
			if _, err := c.nc.Write(frames); err != nil {
				c.dead.Store(true)
				c.nc.Close()
			} else {
				delivered = true
			}
		}
		if t.resp != nil {
			c.s.met.observeWrite(t.resp.Op, time.Since(t0))
		}
		if !delivered && t.Sess != nil && (t.admitted || t.raw != nil) {
			// The exact bytes that failed to reach the socket go to the
			// session backlog, to replay verbatim on resume. Spill copies
			// them: frames may be this connection's write buffer.
			t.Sess.Spill(t.id, t.Lane, frames)
		}
		if t.admitted {
			c.s.sched.Release(1)
			c.s.inflight.Add(-1)
			t.Tenant.NoteCompleted(t.Lane)
		}
		if cap(c.wbuf) > wire.MaxKeptBuffer {
			c.wbuf = nil
		}
		// The response is on the socket (or spilled): the request's frame
		// body, which the handler may have read until now, can be recycled.
		t.free()
		c.owed.Done()
		<-c.window
	}
}
