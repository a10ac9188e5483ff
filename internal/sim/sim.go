// Package sim implements a deterministic discrete-event simulator.
//
// The simulator provides virtual time, cooperatively scheduled processes,
// capacity-limited FIFO resources, and one-shot events. Exactly one process
// runs at a time: a process executes real Go code (building blocks, sorting
// keys, moving bytes) and gives the simulation up whenever it needs virtual
// time to pass — sleeping, acquiring a busy resource, or waiting on an event —
// by popping the next event and resuming that event's process directly.
// Events with equal timestamps fire in the order they were scheduled, so every
// run of a simulation is fully deterministic.
//
// All timing in the KV-CSD reproduction flows through this package: host CPU
// cores, SoC CPU cores, SSD channels and the PCIe link are Resources, and the
// virtual-time critical path through them is what the benchmark harness
// reports as "time".
package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is deliberately the
// same base type as time.Duration so the helpers in this package interoperate
// with untyped constants like 5 * time.Microsecond.
type Duration = time.Duration

// MaxTime is the largest representable virtual timestamp.
const MaxTime = Time(math.MaxInt64)

// String formats a Time using time.Duration notation (e.g. "1.5ms").
func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns the timestamp expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// event is a scheduled wake-up of a process.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among equal timestamps
	proc *Proc
}

func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events ordered by (at, seq). It holds
// events by value and is sifted by hand: container/heap would box every
// pushed event into an interface, one allocation per wake-up.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the proc reference
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// Env is a simulation environment: an event queue, a virtual clock, and the
// set of live processes. There is no scheduler goroutine: the process that
// blocks or returns pops the next event itself and resumes its owner
// directly, so the state below is only ever touched by the one goroutine
// that currently owns the simulation. Run starts the first process and waits
// for the queue to drain.
type Env struct {
	now     Time
	seq     uint64
	events  eventQueue
	stopped chan struct{} // last process -> Run: queue empty or a panic
	live    int           // processes spawned and not yet finished
	procs   map[int]*Proc // live processes, for deadlock diagnostics
	procSeq int
	panicV  interface{} // panic propagated out of a process
	didRun  bool
}

// NewEnv creates an empty simulation environment at virtual time zero.
func NewEnv() *Env {
	return &Env{stopped: make(chan struct{}), procs: make(map[int]*Proc)}
}

// Now returns the current virtual time. Outside Run it reports the time the
// clock stopped at.
func (e *Env) Now() Time { return e.now }

// Busy reports whether a live process other than the caller has an event
// scheduled. False means every other process is blocked until someone wakes
// it: left alone, the simulation would stand still.
func (e *Env) Busy() bool {
	for _, ev := range e.events {
		if !ev.proc.done {
			return true
		}
	}
	return false
}

// schedule enqueues a wake-up for p at time at.
func (e *Env) schedule(p *Proc, at Time) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, proc: p})
}

// next pops the earliest event of a process that has not finished, advances
// the clock to it and returns its process; nil once the queue is empty.
func (e *Env) next() *Proc {
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.proc.done {
			continue
		}
		e.now = ev.at
		return ev.proc
	}
	return nil
}

// handoff passes the simulation to the owner of the next event, or back to
// Run when nothing is left to run or a process has panicked. The caller must
// not touch simulation state afterwards until it is resumed.
func (e *Env) handoff(next *Proc) {
	if next == nil || e.panicV != nil {
		e.stopped <- struct{}{}
		return
	}
	next.resume <- struct{}{}
}

// Proc is a simulation process. Each process runs on its own goroutine but is
// scheduled cooperatively: it owns the simulation until it blocks via Sleep,
// Acquire, Wait, or returns.
type Proc struct {
	env    *Env
	name   string
	id     int
	resume chan struct{}
	done   bool
	doneEv *Event // fired when the process body returns
}

// Go spawns a new process that begins at the current virtual time. The
// returned Proc can be waited on via its Done event.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{
		env:    e,
		name:   name,
		id:     e.procSeq,
		resume: make(chan struct{}),
	}
	p.doneEv = NewEvent(e)
	e.live++
	e.procs[p.id] = p
	go func() {
		<-p.resume // wait for first dispatch
		defer func() {
			if r := recover(); r != nil {
				if e.panicV == nil {
					e.panicV = fmt.Sprintf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
				}
			}
			p.done = true
			e.live--
			delete(e.procs, p.id)
			p.doneEv.Signal()
			e.handoff(e.next())
		}()
		fn(p)
	}()
	e.schedule(p, e.now)
	return p
}

// Run drives the simulation until no events remain. It panics if a process
// panicked (propagating the message) and returns the final virtual time.
func (e *Env) Run() Time {
	if e.didRun {
		panic("sim: Env.Run called twice")
	}
	e.didRun = true
	if first := e.next(); first != nil {
		first.resume <- struct{}{}
		<-e.stopped
	}
	if e.panicV != nil {
		panic(e.panicV)
	}
	if e.live > 0 {
		var names []string
		for _, p := range e.procs {
			names = append(names, p.name)
		}
		sort.Strings(names)
		panic(fmt.Sprintf("sim: deadlock — %d process(es) blocked with no pending events: %v", e.live, names))
	}
	return e.now
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// ID returns the process's unique id (sequential from 1 per Env).
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Done returns an event that fires when the process body has returned.
func (p *Proc) Done() *Event { return p.doneEv }

// block gives up the simulation until some event of p comes due. Unless the
// caller scheduled one (Sleep), another process must wake us via
// env.schedule(p, ...). When the next event is p's own — a sleep with nothing
// else runnable before it — block returns without any goroutine switch.
func (p *Proc) block() {
	next := p.env.next()
	if next == p {
		return
	}
	p.env.handoff(next)
	<-p.resume
}

// Block parks the process with no scheduled wake-up; some other process must
// call Env.Wake(p). This is the primitive for building custom queues and
// condition variables (e.g. the NVMe submission queue).
func (p *Proc) Block() { p.block() }

// Wake schedules a parked process to resume at the current virtual time.
func (e *Env) Wake(p *Proc) { e.schedule(p, e.now) }

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero. Sleep(0) still yields, letting same-time events interleave
// in FIFO order.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p, p.env.now.Add(d))
	p.block()
}

// Yield lets other runnable processes at the current instant proceed.
func (p *Proc) Yield() { p.Sleep(0) }

// Resource is a FIFO resource with a fixed number of interchangeable servers
// (e.g. CPU cores, an SSD channel, a DMA engine). Acquire blocks until a
// server is free; waiters are granted strictly in arrival order.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	waiters  []*Proc

	// freeAt holds per-server completion times for Reserve-mode resources.
	freeAt []Time

	// accounting
	busy        Duration // total server-busy virtual time
	acquires    int64
	lastChange  Time
	held        Duration // integral of inUse over time, up to lastChange
	createdAt   Time
	maxObserved int
}

// NewResource creates a resource with the given server count (capacity >= 1).
func NewResource(e *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: e, name: name, capacity: capacity, createdAt: e.now, lastChange: e.now}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the number of servers.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of currently held servers.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes blocked waiting for a server.
func (r *Resource) QueueLen() int { return len(r.waiters) }

func (r *Resource) accumulate() {
	now := r.env.now
	r.held += Duration(r.inUse) * Duration(now-r.lastChange)
	r.lastChange = now
}

// Acquire obtains one server, blocking in FIFO order until one is available.
func (p *Proc) Acquire(r *Resource) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.accumulate()
		r.inUse++
		if r.inUse > r.maxObserved {
			r.maxObserved = r.inUse
		}
		r.acquires++
		return
	}
	r.waiters = append(r.waiters, p)
	p.block()
	// Release granted us the server before waking us.
}

// Release returns one server to the resource and wakes the oldest waiter.
func (p *Proc) Release(r *Resource) {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if len(r.waiters) > 0 {
		// Hand the server directly to the next waiter: inUse stays constant.
		next := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.acquires++
		r.env.schedule(next, r.env.now)
		return
	}
	r.accumulate()
	r.inUse--
}

// Reserve books the earliest-available server for d of virtual time without
// blocking the caller, returning the completion timestamp. This is the
// queue-depth model for device channels: a caller can reserve several
// channels at once and SleepUntil the latest completion, getting parallel
// I/O across channels. A resource must be used either exclusively through
// Acquire/Use or exclusively through Reserve — mixing the two would let
// reservations jump the FIFO queue.
func (r *Resource) Reserve(d Duration) Time {
	if d < 0 {
		d = 0
	}
	if r.freeAt == nil {
		r.freeAt = make([]Time, r.capacity)
	}
	best := 0
	for i := 1; i < r.capacity; i++ {
		if r.freeAt[i] < r.freeAt[best] {
			best = i
		}
	}
	start := r.env.now
	if r.freeAt[best] > start {
		start = r.freeAt[best]
	}
	r.freeAt[best] = start.Add(d)
	r.busy += d
	r.acquires++
	return r.freeAt[best]
}

// SleepUntil suspends the process until the given virtual timestamp (no-op
// if it is in the past).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.env.now {
		return
	}
	p.Sleep(Duration(t - p.env.now))
}

// Use acquires a server, holds it for d of virtual time, and releases it.
// This is the workhorse for charging CPU or channel busy time.
func (p *Proc) Use(r *Resource, d Duration) {
	if d < 0 {
		d = 0
	}
	p.Acquire(r)
	r.busy += d
	p.Sleep(d)
	p.Release(r)
}

// BusyTime returns the total virtual time servers of r have been held via Use.
func (r *Resource) BusyTime() Duration { return r.busy }

// Acquires returns the number of grants performed.
func (r *Resource) Acquires() int64 { return r.acquires }

// MaxInUse returns the high-water mark of concurrently held servers.
func (r *Resource) MaxInUse() int { return r.maxObserved }

// NextFree returns the earliest virtual time any server sheds its
// reservations (never before now). Inspection only — no side effects — for
// Reserve-mode resources like device channels; a value after now means the
// resource has a backlog.
func (r *Resource) NextFree() Time {
	if r.freeAt == nil {
		return r.env.now
	}
	best := r.freeAt[0]
	for _, t := range r.freeAt[1:] {
		if t < best {
			best = t
		}
	}
	if best < r.env.now {
		return r.env.now
	}
	return best
}

// HeldTime returns the exact integral of held servers over virtual time up to
// now: server-time in use so far. Unlike BusyTime, which charges a Use's
// whole duration when it starts, it counts only the part already elapsed, so
// its difference over an interval is the interval's server-time.
func (r *Resource) HeldTime() Duration {
	r.accumulate()
	return r.held
}

// Utilization reports mean busy servers / capacity over the resource lifetime.
func (r *Resource) Utilization() float64 {
	elapsed := float64(r.env.now - r.createdAt)
	if elapsed <= 0 {
		return 0
	}
	return float64(r.HeldTime()) / (elapsed * float64(r.capacity))
}

// Event is a one-shot broadcast: processes Wait on it; Signal wakes all
// current and future waiters (waiting on an already-signalled event returns
// immediately).
type Event struct {
	env     *Env
	fired   bool
	at      Time
	waiters []*Proc
	// first backs waiters while there is one: most events (a command's
	// completion, a process's Done) only ever have a single waiter.
	first [1]*Proc
}

// NewEvent creates an unfired event.
func NewEvent(e *Env) *Event { return &Event{env: e} }

// Init resets ev to an unfired event of e. It is for events embedded by value
// in a larger allocation (an NVMe submission); an Event must not be copied
// once a process waits on it.
func (ev *Event) Init(e *Env) { *ev = Event{env: e} }

// Fired reports whether Signal has been called.
func (ev *Event) Fired() bool { return ev.fired }

// FiredAt returns the virtual time Signal was called; valid only if Fired.
func (ev *Event) FiredAt() Time { return ev.at }

// Signal fires the event, waking every waiter at the current virtual time.
// Signalling twice is a no-op.
func (ev *Event) Signal() {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.at = ev.env.now
	for _, w := range ev.waiters {
		ev.env.schedule(w, ev.env.now)
	}
	ev.waiters, ev.first[0] = nil, nil
}

// Wait blocks the process until the event fires. Returns immediately if it
// already has.
func (p *Proc) Wait(ev *Event) {
	if ev.fired {
		return
	}
	if ev.waiters == nil {
		ev.waiters = ev.first[:0]
	}
	ev.waiters = append(ev.waiters, p)
	p.block()
}

// Join waits for all given processes to finish.
func (p *Proc) Join(procs ...*Proc) {
	for _, q := range procs {
		p.Wait(q.Done())
	}
}

// Gauge tracks a time-weighted value (e.g. queue depth, DRAM in use) for
// reporting mean and max over a run. Set/Add run on the simulation goroutine;
// Value and Max may be read concurrently (the live telemetry endpoint polls
// them), so the fields are mutex-guarded. Mean reads the environment's
// current time and is only meaningful from the simulation goroutine.
type Gauge struct {
	env    *Env
	mu     sync.Mutex
	val    float64
	max    float64
	weight float64
	last   Time
	start  Time
}

// NewGauge creates a gauge starting at zero.
func NewGauge(e *Env) *Gauge { return &Gauge{env: e, last: e.now, start: e.now} }

// Set records a new instantaneous value.
func (g *Gauge) Set(v float64) {
	now := g.env.now
	g.mu.Lock()
	g.weight += g.val * float64(now-g.last)
	g.last = now
	g.val = v
	if v > g.max {
		g.max = v
	}
	g.mu.Unlock()
}

// Add increments the current value by delta.
func (g *Gauge) Add(delta float64) {
	g.mu.Lock()
	v := g.val + delta
	g.mu.Unlock()
	g.Set(v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.val
}

// Max returns the maximum value observed.
func (g *Gauge) Max() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Mean returns the time-weighted mean value since creation.
func (g *Gauge) Mean() float64 {
	now := g.env.now
	g.mu.Lock()
	defer g.mu.Unlock()
	elapsed := float64(now - g.start)
	if elapsed <= 0 {
		return g.val
	}
	return (g.weight + g.val*float64(now-g.last)) / elapsed
}

// TransferTime returns the virtual time needed to move n bytes over a link
// with the given bandwidth in bytes/second, rounded up to whole nanoseconds.
func TransferTime(n int64, bytesPerSec float64) Duration {
	if n <= 0 || bytesPerSec <= 0 {
		return 0
	}
	ns := float64(n) / bytesPerSec * 1e9
	return Duration(math.Ceil(ns))
}
