package compaction

import "kvcsd/internal/sim"

// Ring is a bounded producer/consumer buffer between two pipeline stage
// procs, built on the sim Block/Wake primitive (the same wake-list idiom as
// the NVMe submission queue). Push blocks while the ring is full, Pop while
// it is empty; Close releases both sides so pipelines always drain even on
// error paths. The onDelta hook feeds the engine's pipeline-occupancy and
// DRAM gauges.
type Ring[T any] struct {
	env      *sim.Env
	cap      int
	size     func(T) int
	held     int // the size of the buffered items
	items    []T
	pushWait []*sim.Proc
	popWait  []*sim.Proc
	closed   bool
	onDelta  func(items, size int)
}

// NewRing builds a ring whose buffered items add up to at most capacity
// (minimum 1), each weighing size(v), or 1 when size is nil; an item over the
// capacity still enters an empty ring. onDelta, if non-nil, is called with
// (+1, size) on every buffered item and (-1, -size) on every consumed one.
func NewRing[T any](env *sim.Env, capacity int, size func(T) int, onDelta func(items, size int)) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	if size == nil {
		size = func(T) int { return 1 }
	}
	return &Ring[T]{env: env, cap: capacity, size: size, onDelta: onDelta, items: make([]T, 0, 4)}
}

// Len returns the number of buffered items.
func (r *Ring[T]) Len() int { return len(r.items) }

// Push appends an item, blocking while the ring is full. It returns false if
// the ring was closed (the consumer gave up — stop producing).
func (r *Ring[T]) Push(p *sim.Proc, v T) bool {
	n := r.size(v)
	for r.held > 0 && r.held+n > r.cap && !r.closed {
		r.pushWait = append(r.pushWait, p)
		p.Block()
	}
	if r.closed {
		return false
	}
	r.items = append(r.items, v)
	r.held += n
	if r.onDelta != nil {
		r.onDelta(1, n)
	}
	r.wake(&r.popWait)
	return true
}

// Pop removes the oldest item, blocking while the ring is empty. ok is false
// once the ring is closed and drained.
func (r *Ring[T]) Pop(p *sim.Proc) (v T, ok bool) {
	for len(r.items) == 0 && !r.closed {
		r.popWait = append(r.popWait, p)
		p.Block()
	}
	if len(r.items) == 0 {
		return v, false
	}
	v = r.items[0]
	r.items = shift(r.items)
	n := r.size(v)
	r.held -= n
	if r.onDelta != nil {
		r.onDelta(-1, -n)
	}
	r.wake(&r.pushWait)
	return v, true
}

// Close wakes every blocked producer and consumer. Buffered items remain
// poppable (a closed ring drains); further pushes are refused. Items never
// consumed still retire from the occupancy hook so gauges return to zero.
func (r *Ring[T]) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for len(r.pushWait) > 0 {
		r.wake(&r.pushWait)
	}
	for len(r.popWait) > 0 {
		r.wake(&r.popWait)
	}
}

// Discard empties the ring without consuming, retiring occupancy for every
// dropped item — error paths call Close then Discard so the gauge settles.
func (r *Ring[T]) Discard() {
	if r.onDelta != nil && len(r.items) > 0 {
		r.onDelta(-len(r.items), -r.held)
	}
	r.items, r.held = nil, 0
}

func (r *Ring[T]) wake(list *[]*sim.Proc) {
	if len(*list) == 0 {
		return
	}
	p := (*list)[0]
	*list = shift(*list)
	r.env.Wake(p)
}

// shift drops the first element of s in place, so the backing array is
// reused by the next append instead of reallocated once the front is spent.
func shift[T any](s []T) []T {
	var zero T
	n := copy(s, s[1:])
	s[n] = zero
	return s[:n]
}
