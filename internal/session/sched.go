package session

import (
	"sync"

	"kvcsd/internal/wire"
)

// Cause classifies why a request was refused admission.
type Cause uint8

// Shed causes.
const (
	CauseNone     Cause = iota
	CauseGlobal         // server-wide admission cap reached
	CauseTenant         // the tenant's per-lane queue cap reached
	CauseSession        // the session's outstanding-request cap reached
	CauseBacklog        // the session's backlog byte cap reached on spill
	CauseDraining       // server shutting down
	numCauses
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseGlobal:
		return "global-cap"
	case CauseTenant:
		return "tenant-cap"
	case CauseSession:
		return "session-cap"
	case CauseBacklog:
		return "backlog-full"
	case CauseDraining:
		return "draining"
	}
	return "unknown"
}

// Item is one request parked in the scheduler. The caller owns it and may
// embed it in its own per-request object (the server's task does), so parking
// a request allocates nothing; once NextBatch has handed it back it can be
// enqueued again.
type Item struct {
	Sess   *Session // nil for anonymous (unsessioned) requests
	Tenant *Tenant
	Lane   wire.Lane
	Cost   int64 // service cost in quantum units (see RequestCost)
	Value  any   // the server's task

	next *Item // FIFO link within the tenant's flow while parked
}

// flow is one tenant's FIFO within a lane, with its DRR deficit counter. A
// flow stays in its lane's table once created (there is one per tenant ever
// seen on the lane) and joins the round-robin ring only while it holds items.
type flow struct {
	tenant     *Tenant
	head, tail *Item
	deficit    int64
}

func (f *flow) push(it *Item) {
	it.next = nil
	if f.tail == nil {
		f.head = it
	} else {
		f.tail.next = it
	}
	f.tail = it
}

func (f *flow) pop() *Item {
	it := f.head
	f.head, it.next = it.next, nil
	if f.head == nil {
		f.tail = nil
	}
	return it
}

func (f *flow) empty() bool { return f.head == nil }

// laneQ is one priority lane: a deficit round-robin over active tenant flows
// plus the lane's own weighted credit against the other lanes.
type laneQ struct {
	credit int64
	flows  map[*Tenant]*flow
	ring   []*flow
	cur    int
	fresh  bool // the flow at cur has not yet received this visit's top-up
	length int
}

func (lq *laneQ) push(it *Item) {
	f := lq.flows[it.Tenant]
	if f == nil {
		f = &flow{tenant: it.Tenant}
		lq.flows[it.Tenant] = f
	}
	if f.empty() {
		lq.ring = append(lq.ring, f)
		if len(lq.ring) == 1 {
			lq.fresh = true
		}
	}
	f.push(it)
	lq.length++
}

// pop serves the lane by classic deficit round-robin: a visit starts by
// topping the flow's deficit up once by quantum × tenant weight, then serves
// items while the deficit covers their cost; when it no longer does, the
// visit ends and the next flow gets its turn. Heavier tenants therefore
// drain proportionally more cost per round, and an expensive head item waits
// a bounded number of rounds rather than blocking the lane.
func (lq *laneQ) pop() *Item {
	for {
		f := lq.ring[lq.cur]
		if lq.fresh {
			f.deficit += quantum * int64(f.tenant.Weight)
			lq.fresh = false
		}
		head := f.head
		if f.deficit < head.Cost {
			lq.cur = (lq.cur + 1) % len(lq.ring)
			lq.fresh = true
			continue
		}
		f.deficit -= head.Cost
		it := f.pop()
		lq.length--
		if f.empty() {
			// An emptied flow leaves the round-robin and forfeits its
			// deficit, so idle tenants cannot bank credit.
			f.deficit = 0
			lq.ring = append(lq.ring[:lq.cur], lq.ring[lq.cur+1:]...)
			if len(lq.ring) > 0 {
				lq.cur %= len(lq.ring)
			} else {
				lq.cur = 0
			}
			lq.fresh = true
		}
		return it
	}
}

// Scheduler is the deficit-weighted-fair admission queue between the socket
// goroutines and the gateway proc. Enqueue parks admitted requests; NextBatch
// blocks until work exists (or intake closes) and serves lanes by weighted
// credit, tenants within a lane by DRR.
type Scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	tenantQueue int
	maxInflight int

	occupied int // enqueued + dispatched but not yet released
	queued   int
	closed   bool
	lanes    [wire.NumLanes]laneQ
	batch    []*Item // NextBatch's result, reused by the next call
}

// NewScheduler builds a scheduler for the given config; maxInflight is the
// server-wide cap on requests parked or executing.
func NewScheduler(cfg Config, maxInflight int) *Scheduler {
	s := &Scheduler{
		tenantQueue: cfg.TenantQueue,
		maxInflight: maxInflight,
	}
	if s.tenantQueue <= 0 {
		// Default: one tenant may fill the whole admission window — the
		// single-tenant behavior of the old global token pool.
		s.tenantQueue = maxInflight
	}
	for l := 0; l < wire.NumLanes; l++ {
		s.lanes[l].flows = make(map[*Tenant]*flow)
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Enqueue parks one item, returning CauseNone on success or the shed cause.
// The caller owns the per-session cap (CauseSession) and all counter
// bookkeeping; the scheduler enforces the global and per-tenant caps.
func (s *Scheduler) Enqueue(it *Item) Cause {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CauseDraining
	}
	if s.occupied >= s.maxInflight {
		return CauseGlobal
	}
	if it.Tenant.queued[it.Lane].Load() >= int64(s.tenantQueue) {
		return CauseTenant
	}
	s.lanes[it.Lane].push(it)
	s.occupied++
	s.queued++
	it.Tenant.queued[it.Lane].Add(1)
	s.cond.Signal()
	return CauseNone
}

// NextBatch blocks until at least one item is parked (or intake is closed),
// then pops up to max items in fair order. ok is false once the scheduler is
// closed and fully drained. The returned slice is the scheduler's own and is
// overwritten by the next call: there is one consumer, the gateway.
func (s *Scheduler) NextBatch(max int) ([]*Item, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.queued == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.queued == 0 {
		return nil, false
	}
	if max <= 0 {
		max = 1
	}
	batch := s.batch[:0]
	for len(batch) < max && s.queued > 0 {
		batch = append(batch, s.popLocked())
	}
	s.batch = batch
	return batch, !s.closed || s.queued > 0
}

// popLocked picks the non-empty lane with the most credit (priority order
// breaks ties); when every candidate is out of credit, all lanes replenish by
// their weight — so under sustained contention lane throughput converges to
// the weight ratio, while an uncontended lane runs at full speed.
func (s *Scheduler) popLocked() *Item {
	for {
		best := -1
		for l := 0; l < wire.NumLanes; l++ {
			if s.lanes[l].length == 0 {
				continue
			}
			if best == -1 || s.lanes[l].credit > s.lanes[best].credit {
				best = l
			}
		}
		if best == -1 {
			return nil
		}
		if s.lanes[best].credit <= 0 {
			for l := 0; l < wire.NumLanes; l++ {
				capCredit := 4 * quantum * laneWeights[l]
				s.lanes[l].credit += quantum * laneWeights[l]
				if s.lanes[l].credit > capCredit {
					s.lanes[l].credit = capCredit
				}
			}
			continue
		}
		lq := &s.lanes[best]
		it := lq.pop()
		lq.credit -= it.Cost
		s.queued--
		it.Tenant.queued[it.Lane].Add(-1)
		return it
	}
}

// Release returns n admission slots once their responses are written (or
// spilled); the counterpart of Enqueue's occupancy charge.
func (s *Scheduler) Release(n int) {
	s.mu.Lock()
	s.occupied -= n
	s.mu.Unlock()
}

// Queued reports how many items are parked (not yet dispatched).
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// CloseIntake refuses all further Enqueues; parked items still drain through
// NextBatch so shutdown cannot strand queued work.
func (s *Scheduler) CloseIntake() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
