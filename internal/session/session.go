package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"kvcsd/internal/wire"
)

// Config tunes the session layer. Zero values take defaults.
type Config struct {
	// Weights maps tenant name -> DRR weight; unnamed tenants get
	// defaultWeight. A heavier tenant drains proportionally more cost per
	// scheduling round within its lane.
	Weights map[string]int
	// TenantQueue caps how many requests one tenant may have parked per
	// lane; beyond it the tenant is shed (CauseTenant) while others keep
	// being admitted. Default: the server's MaxInflight (single-tenant
	// behavior matches the old global pool).
	TenantQueue int
	// SessionPending caps outstanding (parked or executing) requests per
	// session — the slow-client bound. Default 64.
	SessionPending int
	// BacklogBytes caps each session's spilled-response backlog. Default 1 MiB.
	BacklogBytes int
	// Seed makes session token generation deterministic for a fixed seed.
	Seed int64
}

const (
	// defaultWeight is the DRR weight of tenants absent from Config.Weights.
	defaultWeight = 4
	// quantum is the deficit each flow gains per round-robin visit, per
	// weight unit, in cost units (one unit ≈ one small request; large
	// payloads cost more — see RequestCost): tenants interleave finely.
	quantum = 1
	// maxSessions caps concurrently open sessions server-wide.
	maxSessions = 1 << 20
	// appliedWindow is how many (request id -> status) outcomes a session
	// retains for duplicate suppression.
	appliedWindow = 1024
)

// laneWeights is the credit ratio between the latency, normal and bulk lanes
// under contention.
var laneWeights = [wire.NumLanes]int64{8, 3, 1}

func (c Config) withDefaults() Config {
	if c.SessionPending <= 0 {
		c.SessionPending = 64
	}
	if c.BacklogBytes <= 0 {
		c.BacklogBytes = 1 << 20
	}
	return c
}

// AnonTenant is the tenant unsessioned connections bill to.
const AnonTenant = "anon"

// Session-layer errors.
var (
	// ErrNoTenant reports a Hello with an empty tenant name.
	ErrNoTenant = errors.New("session: hello without a tenant")
	// ErrTooManySessions reports the server-wide session cap.
	ErrTooManySessions = errors.New("session: too many open sessions")
)

// Tenant is one billing principal: its fair-share weight plus per-lane
// accounting. All counters are atomic so the telemetry endpoint and stats
// snapshots read them without locking the scheduler.
type Tenant struct {
	Name   string
	Weight int

	queued    [wire.NumLanes]atomic.Int64
	admitted  [wire.NumLanes]atomic.Int64
	completed [wire.NumLanes]atomic.Int64
	shedLane  [wire.NumLanes]atomic.Int64
	shedCause [numCauses]atomic.Int64

	sessions     atomic.Int64
	backlogBytes atomic.Int64
}

// NoteAdmitted counts one request accepted into the scheduler.
func (t *Tenant) NoteAdmitted(l wire.Lane) { t.admitted[l].Add(1) }

// NoteCompleted counts one response written (or spilled to a backlog).
func (t *Tenant) NoteCompleted(l wire.Lane) { t.completed[l].Add(1) }

// NoteShed counts one refused request with its cause.
func (t *Tenant) NoteShed(l wire.Lane, c Cause) {
	t.shedLane[l].Add(1)
	t.shedCause[c].Add(1)
}

// Queued reports the tenant's current parked depth on one lane.
func (t *Tenant) Queued(l wire.Lane) int64 { return t.queued[l].Load() }

// Stats snapshots the tenant's accounting in wire form.
func (t *Tenant) Stats() wire.TenantStats {
	ts := wire.TenantStats{
		Tenant:       t.Name,
		Weight:       int64(t.Weight),
		Sessions:     t.sessions.Load(),
		BacklogBytes: t.backlogBytes.Load(),
		ShedSession:  t.shedCause[CauseSession].Load(),
		ShedTenant:   t.shedCause[CauseTenant].Load(),
		ShedGlobal:   t.shedCause[CauseGlobal].Load() + t.shedCause[CauseDraining].Load(),
		ShedBacklog:  t.shedCause[CauseBacklog].Load(),
		Lanes:        make([]wire.LaneStats, wire.NumLanes),
	}
	for l := 0; l < wire.NumLanes; l++ {
		ts.Lanes[l] = wire.LaneStats{
			Lane:      uint8(l),
			Admitted:  t.admitted[l].Load(),
			Completed: t.completed[l].Load(),
			Shed:      t.shedLane[l].Load(),
			Queued:    t.queued[l].Load(),
		}
	}
	return ts
}

// Manager owns the tenant table and the session table: handshakes, resumes,
// token generation, and the per-tenant stats rollup.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	tenants  map[string]*Tenant
	sessions map[uint64]*Session
	tokenCtr uint64
}

// NewManager builds a session manager; zero config fields take defaults.
func NewManager(cfg Config) *Manager {
	return &Manager{
		cfg:      cfg.withDefaults(),
		tenants:  make(map[string]*Tenant),
		sessions: make(map[uint64]*Session),
	}
}

// Config returns the normalized configuration.
func (m *Manager) Config() Config { return m.cfg }

// Tenant returns (creating on first use) the named tenant.
func (m *Manager) Tenant(name string) *Tenant {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tenantLocked(name)
}

func (m *Manager) tenantLocked(name string) *Tenant {
	t, ok := m.tenants[name]
	if !ok {
		w := m.cfg.Weights[name]
		if w <= 0 {
			w = defaultWeight
		}
		t = &Tenant{Name: name, Weight: w}
		m.tenants[name] = t
	}
	return t
}

// Anon returns the tenant unsessioned requests bill to.
func (m *Manager) Anon() *Tenant { return m.Tenant(AnonTenant) }

// Lookup resolves a session token (nil if unknown).
func (m *Manager) Lookup(token uint64) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessions[token]
}

// Sessions reports how many sessions are open.
func (m *Manager) Sessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// splitmix64 finalizer: deterministic, well-mixed session tokens from
// (seed, counter) without any global randomness.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (m *Manager) newTokenLocked() uint64 {
	for {
		m.tokenCtr++
		tok := mix64(uint64(m.cfg.Seed)*0x9E3779B97F4A7C15 + m.tokenCtr)
		if tok != 0 {
			if _, taken := m.sessions[tok]; !taken {
				return tok
			}
		}
	}
}

// Hello opens or resumes a session for conn. On resume the returned replay
// holds the backlog's unreplayed responses (original order, byte-identical
// frames) and prev is the connection the session was attached to before (the
// caller should kick it). A resume token that is unknown — or that names a
// session of a different tenant — falls back to opening a fresh session.
func (m *Manager) Hello(h *wire.HelloMsg, conn any) (sess *Session, replay []ReplayEntry, resumed bool, prev any, err error) {
	if h.Tenant == "" {
		return nil, nil, false, nil, ErrNoTenant
	}
	m.mu.Lock()
	if h.Resume != 0 {
		if s := m.sessions[h.Resume]; s != nil && s.tenant.Name == h.Tenant {
			m.mu.Unlock()
			prev = s.Attach(conn)
			return s, s.Replay(), true, prev, nil
		}
	}
	if len(m.sessions) >= maxSessions {
		m.mu.Unlock()
		return nil, nil, false, nil, fmt.Errorf("%w (cap %d)", ErrTooManySessions, maxSessions)
	}
	t := m.tenantLocked(h.Tenant)
	tok := m.newTokenLocked()
	sess = &Session{
		token:      tok,
		tenant:     t,
		class:      h.Class,
		pendingCap: m.cfg.SessionPending,
		pending:    make(map[uint64]struct{}),
		applied:    make(map[uint64]wire.Status),
		backlog:    NewBacklog(m.cfg.BacklogBytes),
	}
	m.sessions[tok] = sess
	m.mu.Unlock()
	t.sessions.Add(1)
	sess.Attach(conn)
	return sess, nil, false, nil, nil
}

// WireStats snapshots every tenant's accounting, sorted by name.
func (m *Manager) WireStats() []wire.TenantStats {
	m.mu.Lock()
	tenants := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		tenants = append(tenants, t)
	}
	m.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Name < tenants[j].Name })
	out := make([]wire.TenantStats, len(tenants))
	for i, t := range tenants {
		out[i] = t.Stats()
	}
	return out
}

// Session is one resumable client session: its token, tenant, priority
// class, outstanding-request window, duplicate-suppression state, and
// response backlog.
type Session struct {
	token      uint64
	tenant     *Tenant
	class      uint8
	pendingCap int

	mu           sync.Mutex
	attached     any
	pending      map[uint64]struct{}
	applied      map[uint64]wire.Status
	appliedOrder []uint64
	backlog      *Backlog
}

// Token returns the session token.
func (s *Session) Token() uint64 { return s.token }

// Tenant returns the owning tenant.
func (s *Session) Tenant() *Tenant { return s.tenant }

// Class returns the session-wide lane override byte (0 = none).
func (s *Session) Class() uint8 { return s.class }

// Attach binds the session to a connection, returning the previously
// attached one (nil if none) so the caller can kick it.
func (s *Session) Attach(conn any) (prev any) {
	s.mu.Lock()
	prev = s.attached
	s.attached = conn
	s.mu.Unlock()
	if prev == conn {
		return nil
	}
	return prev
}

// Detach clears the attachment if conn is still the attached connection.
func (s *Session) Detach(conn any) {
	s.mu.Lock()
	if s.attached == conn {
		s.attached = nil
	}
	s.mu.Unlock()
}

// BeginPending registers an outstanding request id. dup reports an id
// already in flight (the caller should drop the duplicate silently — the
// original's response will answer it); full reports the session's
// outstanding cap is reached (shed with CauseSession).
func (s *Session) BeginPending(id uint64) (dup, full bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pending[id]; ok {
		return true, false
	}
	if len(s.pending) >= s.pendingCap {
		return false, true
	}
	s.pending[id] = struct{}{}
	return false, false
}

// AbortPending removes an id registered by BeginPending whose enqueue failed.
func (s *Session) AbortPending(id uint64) {
	s.mu.Lock()
	delete(s.pending, id)
	s.mu.Unlock()
}

// MarkApplied records a request's outcome for duplicate suppression and
// clears its pending slot. The applied window is bounded: the oldest entry
// falls out once appliedWindow outcomes are retained.
func (s *Session) MarkApplied(id uint64, status wire.Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, id)
	if _, ok := s.applied[id]; !ok {
		s.appliedOrder = append(s.appliedOrder, id)
		if len(s.appliedOrder) > appliedWindow {
			old := s.appliedOrder[0]
			s.appliedOrder = s.appliedOrder[1:]
			delete(s.applied, old)
		}
	}
	s.applied[id] = status
}

// LookupApplied reports a previously applied request's status.
func (s *Session) LookupApplied(id uint64) (wire.Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.applied[id]
	return st, ok
}

// LookupFrame returns the backlogged response frames for id, if spilled.
func (s *Session) LookupFrame(id uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backlog.Frame(id)
}

// Spill parks an undeliverable response in the backlog. Overflow is counted
// against the tenant (CauseBacklog) and the response is dropped — the client
// re-asks under the same id after resuming.
func (s *Session) Spill(id uint64, lane wire.Lane, frames []byte) error {
	s.mu.Lock()
	before := s.backlog.Bytes()
	err := s.backlog.Append(id, frames)
	delta := int64(s.backlog.Bytes() - before)
	s.mu.Unlock()
	s.tenant.backlogBytes.Add(delta)
	if err != nil {
		s.tenant.NoteShed(lane, CauseBacklog)
	}
	return err
}

// Replay drains the backlog's unreplayed responses in original order.
func (s *Session) Replay() []ReplayEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backlog.Replay()
}

// BacklogBytes reports the session's retained backlog size.
func (s *Session) BacklogBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backlog.Bytes()
}

// BacklogPending reports backlog entries not yet replayed.
func (s *Session) BacklogPending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backlog.Pending()
}

// ResolveLane picks a request's service lane: an explicit per-frame override
// wins, then the session's priority class, then the opcode's default.
func ResolveLane(op wire.Op, frameOverride, sessionClass uint8) wire.Lane {
	if l, ok := wire.DecodeLaneOverride(frameOverride); ok {
		return l
	}
	if l, ok := wire.DecodeLaneOverride(sessionClass); ok {
		return l
	}
	return wire.LaneOf(op)
}

// RequestCost prices a request for the fair scheduler: one unit plus one per
// 4 KiB of payload plus one per 8 staged pairs, so a bulk put is charged
// proportionally to the device time it will consume — per-pair index work as
// much as raw bytes — rather than counting like a point get.
func RequestCost(r *wire.Request) int64 {
	n := len(r.Key) + len(r.Value)
	for i := range r.Pairs {
		n += len(r.Pairs[i].Key) + len(r.Pairs[i].Value)
	}
	return 1 + int64(n)/4096 + int64(len(r.Pairs))/8
}
