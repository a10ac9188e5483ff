// Package remote is the network client for a kvcsd-server: the same surface
// as the in-process client library (internal/client), minus the *sim.Proc
// arguments — callers are ordinary goroutines in wall-clock time.
//
// Each connection multiplexes many concurrent requests: calls tag frames
// with unique request IDs, a reader goroutine demultiplexes completions
// (which arrive in completion order, not send order), and a per-connection
// slot semaphore bounds the pipeline depth. A Client can hold several
// connections and deals them out round-robin.
//
// Failure handling reuses the client library's rules: remote device errors
// are rebuilt as *client.StatusError so errors.Is(err, client.ErrNotFound)
// and client.Retryable work unchanged, and the retry loop replays exactly
// the verbs wire.Op.Idempotent allows — plus the transport-only outcomes
// (connection loss, server overload, draining) that are always ambiguous
// and therefore only safe for idempotent verbs too.
package remote

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/compaction"
	"kvcsd/internal/core"
	"kvcsd/internal/nvme"
	"kvcsd/internal/obs"
	"kvcsd/internal/wire"
)

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("remote: client closed")

// errConnBroken reports a connection that died with in-flight requests; the
// underlying cause is wrapped.
var errConnBroken = errors.New("remote: connection broken")

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// Options tunes a Client.
type Options struct {
	// Conns is the connection pool size (default 1).
	Conns int
	// Pipeline is the per-connection cap on outstanding requests
	// (default 64).
	Pipeline int
	// Retry bounds attempts and backoff, interpreted in real time. The zero
	// value means a single attempt with no timeout. A wait (WaitCompacted,
	// WaitIndexBuilt) is exempt from the attempt timeout.
	Retry client.RetryPolicy
	// Tracer, when set, records one wall-clock span per RPC attempt and
	// propagates its trace context in the frame header, so server-side spans
	// caused by the call become its descendants in a merged trace
	// (obs.WriteMergedChromeTrace).
	Tracer *obs.WallTracer
	// Tenant, when set, makes every pool connection open a session for this
	// tenant on dial (wire.OpHello) and resume it — replaying any responses
	// the server backlogged — when the connection is redialed. Requests then
	// carry the session token, so the server bills them to the tenant's
	// fair share and suppresses duplicate request IDs.
	Tenant string
	// Class is the session-wide lane override declared in the handshake
	// (wire.LaneOverride of a lane; 0 keeps per-opcode defaults).
	Class uint8
}

// DefaultOptions returns the default client tuning with the client
// library's default retry policy.
func DefaultOptions() Options {
	return Options{
		Conns:    1,
		Pipeline: 64,
		Retry:    client.DefaultRetryPolicy(),
	}
}

func (o *Options) normalize() {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.Pipeline <= 0 {
		o.Pipeline = 64
	}
}

// Client is a pipelined connection pool to one kvcsd-server.
type Client struct {
	addr   string
	opts   Options
	nextID atomic.Uint64
	closed atomic.Bool

	mu   sync.Mutex
	pool []*poolConn
	next int
}

// Dial connects to a kvcsd-server. All pool connections are established
// eagerly so configuration errors surface here, not mid-workload — including
// the session handshake when a tenant is configured.
func Dial(addr string, opts Options) (*Client, error) {
	opts.normalize()
	c := &Client{addr: addr, opts: opts}
	for i := 0; i < opts.Conns; i++ {
		pc, err := c.dialConn(0)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.pool = append(c.pool, pc)
	}
	return c, nil
}

// Close tears down every connection; in-flight calls fail with a broken-
// connection error.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, pc := range c.pool {
		pc.markDead(ErrClosed)
	}
	return nil
}

// Addr returns the server address this client dials.
func (c *Client) Addr() string { return c.addr }

// dialConn establishes one connection. With a tenant configured it performs
// the session handshake synchronously before the read loop starts (the reply
// is the first frame on a fresh socket); resume carries the previous
// incarnation's token so a redial resumes its session and the server replays
// backlogged responses.
func (c *Client) dialConn(resume uint64) (*poolConn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	pc := &poolConn{
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 64<<10),
		pending: make(map[uint64]chan *wire.Response),
		acc:     make(map[uint64]*wire.Response),
		slots:   make(chan chan *wire.Response, c.opts.Pipeline),
		broken:  make(chan struct{}),
	}
	for i := 0; i < c.opts.Pipeline; i++ {
		pc.slots <- make(chan *wire.Response, 1)
	}
	if c.opts.Tenant != "" {
		if err := c.handshake(pc, resume); err != nil {
			nc.Close()
			return nil, err
		}
	}
	go pc.readLoop()
	return pc, nil
}

// handshake opens (or resumes) the connection's session. Called before the
// read loop starts, so it owns the socket: the first response frame is the
// handshake reply; any replayed backlog frames follow it and are picked up
// by the read loop, where waiters re-registered under their stable request
// IDs receive them.
func (c *Client) handshake(pc *poolConn, resume uint64) error {
	req := &wire.Request{
		ID: c.nextID.Add(1), Op: wire.OpHello,
		Hello: &wire.HelloMsg{Tenant: c.opts.Tenant, Class: c.opts.Class, Resume: resume},
	}
	if err := wire.WriteRequest(pc.nc, req); err != nil {
		return fmt.Errorf("remote: session handshake write: %w", err)
	}
	h, payload, err := wire.ReadFrame(pc.br)
	if err != nil {
		return fmt.Errorf("remote: session handshake read: %w", err)
	}
	if h.Kind != wire.KindResponse || h.ID != req.ID {
		return fmt.Errorf("remote: session handshake got unexpected frame (kind %d id %d)", h.Kind, h.ID)
	}
	resp, err := wire.DecodeResponse(h, payload)
	if err != nil {
		return fmt.Errorf("remote: session handshake decode: %w", err)
	}
	if rerr := respError(req.Op, resp); rerr != nil {
		return fmt.Errorf("remote: session handshake refused: %w", rerr)
	}
	if resp.Hello == nil || resp.Hello.Token == 0 {
		return fmt.Errorf("remote: session handshake reply carried no token")
	}
	pc.sess = resp.Hello.Token
	resp.Release()
	return nil
}

// conn deals out the next connection round-robin, redialing dead ones in
// place so a reconnect repairs the pool without abandoning its slot — and,
// when sessions are on, resumes the dead connection's session.
func (c *Client) conn() (*poolConn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pool) == 0 {
		return nil, ErrClosed
	}
	i := c.next % len(c.pool)
	c.next++
	pc := c.pool[i]
	if !pc.dead.Load() {
		return pc, nil
	}
	fresh, err := c.dialConn(pc.sess)
	if err != nil {
		return nil, fmt.Errorf("%w: redial: %v", errConnBroken, err)
	}
	c.pool[i] = fresh
	return fresh, nil
}

// poolConn is one multiplexed connection.
type poolConn struct {
	nc net.Conn
	// br buffers reads, so a response costs one socket read, not one for its
	// header and one for its body; only the handshake and then the reader
	// goroutine touch it.
	br *bufio.Reader
	// wmu serializes frame writes from concurrent callers and guards wbuf,
	// the frame buffer they encode into.
	wmu  sync.Mutex
	wbuf []byte
	// mu guards pending; acc is touched only by the reader.
	mu      sync.Mutex
	pending map[uint64]chan *wire.Response
	acc     map[uint64]*wire.Response
	// slots bounds the pipeline depth and holds what a call in the pipeline
	// needs: each slot is the (cap 1) channel its response is delivered on,
	// taken for the length of one attempt and put back empty.
	slots chan chan *wire.Response
	// broken is closed when the connection dies; err holds the cause.
	broken   chan struct{}
	dead     atomic.Bool
	deadOnce sync.Once
	err      error
	// sess is the session token negotiated at dial (0 = no session); set
	// before the read loop starts and immutable afterwards.
	sess uint64
}

// readLoop demultiplexes response frames to waiting callers, accumulating
// streamed chunks (FlagMore) so each caller receives one whole response. A
// response that arrives in one frame is delivered as decoded — pooled with
// its frame body, released by the caller (see call).
func (pc *poolConn) readLoop() {
	for {
		h, payload, err := wire.ReadFrame(pc.br)
		if err != nil {
			pc.markDead(fmt.Errorf("%w: %v", errConnBroken, err))
			return
		}
		if h.Kind != wire.KindResponse {
			pc.markDead(fmt.Errorf("%w: server sent non-response frame", errConnBroken))
			return
		}
		chunk, err := wire.DecodeResponse(h, payload)
		if err != nil {
			pc.markDead(fmt.Errorf("%w: undecodable response: %v", errConnBroken, err))
			return
		}
		full, done := wire.Accumulate(pc.acc[h.ID], chunk)
		if full != chunk {
			// Folded into an accumulator, which now holds its pairs; the
			// chunk's body goes with them.
			chunk.Release()
		}
		if !done {
			pc.acc[h.ID] = full
			continue
		}
		delete(pc.acc, h.ID)
		pc.mu.Lock()
		ch := pc.pending[h.ID]
		delete(pc.pending, h.ID)
		pc.mu.Unlock()
		if ch != nil {
			ch <- full // cap 1: never blocks, and abandoned waiters removed themselves
		} else {
			full.Release() // late response to a call that gave up
		}
	}
}

func (pc *poolConn) markDead(cause error) {
	pc.deadOnce.Do(func() {
		pc.err = cause
		pc.dead.Store(true)
		pc.nc.Close()
		close(pc.broken)
	})
}

// addWaiter registers ch as where id's response will be delivered.
func (pc *poolConn) addWaiter(id uint64, ch chan *wire.Response) {
	pc.mu.Lock()
	pc.pending[id] = ch
	pc.mu.Unlock()
}

// removeWaiter withdraws a call that is giving up. It reports false when the
// reader has already claimed the waiter: the response is then in the channel
// or about to be, and the caller must take it.
func (pc *poolConn) removeWaiter(id uint64) bool {
	pc.mu.Lock()
	_, waiting := pc.pending[id]
	delete(pc.pending, id)
	pc.mu.Unlock()
	return waiting
}

// Retryable reports whether an error may be safely retried for an
// idempotent verb: the client library's device-status rules, the
// transport-level shed/drain statuses, and any connection-loss error.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if client.Retryable(err) {
		return true
	}
	if errors.Is(err, wire.ErrOverloaded) || errors.Is(err, wire.ErrShuttingDown) ||
		errors.Is(err, wire.ErrUnavailable) {
		return true
	}
	if errors.Is(err, errConnBroken) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// respError converts a non-OK response into an error: transport statuses map
// to their wire sentinels, device statuses are rebuilt as the client
// library's *client.StatusError so its errors.Is/Retryable rules apply.
func respError(op wire.Op, resp *wire.Response) error {
	if resp.Status == wire.StatusOK {
		return nil
	}
	if terr := resp.Status.Err(); terr != nil {
		if resp.Err != "" {
			return fmt.Errorf("%w: %s", terr, resp.Err)
		}
		return terr
	}
	ns, _ := resp.Status.NVMe()
	return &client.StatusError{Op: op.NVMe(), Status: ns}
}

// spanNames holds each opcode's attempt span name, built once: doOnce runs
// for every attempt, tracing on or off.
var spanNames = func() (t [256]string) {
	for i := range t {
		t[i] = "remote:" + wire.Op(i).String()
	}
	return t
}()

// doOnce performs a single attempt: admit into the pipeline, write the
// frame, wait for the demultiplexed response or a timeout. Each attempt gets
// its own wall span (and trace context), so a retried call shows every
// attempt — and which one the server-side work belongs to — in the trace.
func (c *Client) doOnce(req *wire.Request, timeout time.Duration) (*wire.Response, error) {
	span := c.opts.Tracer.Start(spanNames[req.Op], 0)
	defer span.End()
	req.Trace = wire.TraceContext{TraceID: span.TraceID(), SpanID: span.ID()}

	pc, err := c.conn()
	if err != nil {
		return nil, err
	}
	var ch chan *wire.Response
	select {
	case ch = <-pc.slots:
	case <-pc.broken:
		return nil, pc.err
	}
	// Every path below leaves ch empty with nobody about to send on it.
	defer func() { pc.slots <- ch }()

	req.Session = pc.sess
	pc.addWaiter(req.ID, ch)
	pc.wmu.Lock()
	frame, ferr := wire.AppendRequestFrame(pc.wbuf[:0], req)
	if ferr == nil {
		_, err = pc.nc.Write(frame)
		if pc.wbuf = frame; cap(frame) > wire.MaxKeptBuffer {
			pc.wbuf = nil
		}
	}
	pc.wmu.Unlock()
	if ferr != nil {
		// Too large to frame: nothing was written, the connection is fine.
		pc.removeWaiter(req.ID)
		return nil, ferr
	}
	if err != nil {
		pc.removeWaiter(req.ID)
		pc.markDead(fmt.Errorf("%w: write: %v", errConnBroken, err))
		return nil, pc.err
	}

	var timeoutC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-pc.broken:
		err = pc.err
	case <-timeoutC:
		// The request may still complete server-side; the reader will find
		// no waiter and drop the late response.
		err = &client.TimeoutError{Op: req.Op.NVMe(), Timeout: timeout}
	}
	if !pc.removeWaiter(req.ID) {
		// The reader got there first: the response is ours after all.
		return <-ch, nil
	}
	return nil, err
}

// call runs one request under the retry policy. Non-idempotent verbs get a
// single attempt regardless of policy — a replay of one that actually
// landed would report a wrong outcome. The response comes back by value: the
// decoded one is pooled with its frame body and detached here, which hands
// the body to the byte slices (a value, pairs) the copy references.
func (c *Client) call(req *wire.Request) (wire.Response, error) {
	// One ID per logical call, stable across attempts: a sessioned server
	// recognizes a retry of a request it already holds (in flight, applied,
	// or backlogged) and answers it without applying twice.
	req.ID = c.nextID.Add(1)
	pol := c.opts.Retry
	// A wait takes as long as its job does: the server answers it when the
	// job ends, or at a power cut or shutdown, so no attempt timeout applies.
	timeout := pol.Timeout
	if req.Wait {
		timeout = 0
	}
	backoff := pol.BaseBackoff
	attempts := 0
	for {
		attempts++
		resp, err := c.doOnce(req, timeout)
		if err == nil {
			out := resp.Detach()
			if err = respError(req.Op, &out); err == nil {
				return out, nil
			}
		}
		if !req.Op.Idempotent() || !Retryable(err) ||
			pol.MaxAttempts <= 1 || attempts >= pol.MaxAttempts {
			return wire.Response{}, err
		}
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if pol.MaxBackoff > 0 && backoff > pol.MaxBackoff {
				backoff = pol.MaxBackoff
			}
		}
	}
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	_, err := c.call(&wire.Request{Op: wire.OpPing})
	return err
}

// Stats fetches the server's statistics snapshot.
func (c *Client) Stats() (*wire.StatsReport, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("remote: stats response carried no report")
	}
	return resp.Stats, nil
}

// PowerCut yanks power on a device (array member id; a single-device server
// has only device 0) and returns the server's report.
func (c *Client) PowerCut(device int) (string, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpPowerCut, Device: uint32(device)})
	if err != nil {
		return "", err
	}
	return resp.Report, nil
}

// Recover restarts a powered-off device and returns the recovery report.
func (c *Client) Recover(device int) (string, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpRecover, Device: uint32(device)})
	if err != nil {
		return "", err
	}
	return resp.Report, nil
}

// Scrub runs a media scrub of one device (array member id; a single-device
// server has only device 0). An array server also repairs what it finds from
// healthy replica copies. Returns the decoded report plus the server's
// one-line summary.
func (c *Client) Scrub(device int) (*core.ScrubReport, string, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpScrub, Device: uint32(device)})
	if err != nil {
		return nil, "", err
	}
	rep, err := core.DecodeScrubReport(resp.Value)
	if err != nil {
		return nil, resp.Report, err
	}
	return rep, resp.Report, nil
}

// SetCompactionPolicy installs the compaction config (the pipeline width) on
// the server's device (every healthy member of an array) and returns the
// resulting active config.
func (c *Client) SetCompactionPolicy(cfg compaction.Config) (compaction.Config, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpCompactPolicy, Value: compaction.EncodeConfig(cfg)})
	if err != nil {
		return compaction.Config{}, err
	}
	return compaction.DecodeConfig(resp.Value)
}

// CompactionPolicy queries the server's active compaction config.
func (c *Client) CompactionPolicy() (compaction.Config, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpCompactPolicy})
	if err != nil {
		return compaction.Config{}, err
	}
	return compaction.DecodeConfig(resp.Value)
}

// MigrateCold triggers one lifetime-aware cold-placement sweep on a device
// (array member id; a single-device server has only device 0) and returns how
// many zones moved to the cold tier.
func (c *Client) MigrateCold(device int) (int64, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpMigrateCold, Device: uint32(device)})
	if err != nil {
		return 0, err
	}
	return resp.Moved, nil
}

// Corrupt flips addr.Bits bits inside one extent of keyspace on a device —
// the remote fault-injection hook mirroring PowerCut. Returns the server's
// report line.
func (c *Client) Corrupt(device int, keyspace string, addr nvme.ExtentAddr) (string, error) {
	resp, err := c.call(&wire.Request{
		Op:       wire.OpCorrupt,
		Device:   uint32(device),
		Keyspace: keyspace,
		Extent:   &addr,
	})
	if err != nil {
		return "", err
	}
	return resp.Report, nil
}
