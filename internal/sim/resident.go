package sim

// ResidentProcs is a set of processes that each run one unit of work at a
// time and stay: a proc that finishes parks on the idle list and is woken
// with the next unit. A unit therefore costs no goroutine, Proc, channel,
// Event or closure, and runs on a stack that has already grown — what a
// per-unit Env.Go pays every time.
//
// S is the state one proc keeps: the unit in hand, filled in by whoever
// dispatched it, and whatever scratch the body wants to find again on its
// next unit.
type ResidentProcs[S any] struct {
	env      *Env
	name     string
	body     func(p *Proc, s *S)
	idle     []*residentProc[S]
	released bool
}

type residentProc[S any] struct {
	p     *Proc
	busy  bool
	state S
}

// NewResidentProcs returns an empty set whose procs are named name and run
// body once per dispatched unit.
func NewResidentProcs[S any](env *Env, name string, body func(p *Proc, s *S)) *ResidentProcs[S] {
	return &ResidentProcs[S]{env: env, name: name, body: body}
}

// Dispatch schedules one run of the body at the current virtual instant, on a
// parked proc or — only when none is parked — on a new one, in the
// dispatching process's lane, and returns that proc's state for the caller
// to put the unit in before it next yields.
// Waking a parked proc and starting a new one schedule the same event — the
// body's first step at this instant, after everything scheduled before it —
// so which of the two happens does not show in virtual time.
func (r *ResidentProcs[S]) Dispatch() *S {
	if n := len(r.idle); n > 0 {
		h := r.idle[n-1]
		r.idle = r.idle[:n-1]
		h.busy = true
		h.p.lane = r.env.lane()
		r.env.Wake(h.p)
		return &h.state
	}
	h := &residentProc[S]{busy: true}
	h.p = r.env.Go(r.name, func(p *Proc) { r.loop(p, h) })
	return &h.state
}

func (r *ResidentProcs[S]) loop(p *Proc, h *residentProc[S]) {
	// Woken with nothing dispatched, a proc has been released and returns.
	for h.busy {
		r.body(p, &h.state)
		h.busy = false
		if r.released {
			return
		}
		r.idle = append(r.idle, h)
		p.Block()
	}
}

// Idle reports how many procs are parked.
func (r *ResidentProcs[S]) Idle() int { return len(r.idle) }

// Release lets every proc return — the parked ones now, the others when
// their unit is done — so the simulation can end with nothing blocked.
func (r *ResidentProcs[S]) Release() {
	r.released = true
	for _, h := range r.idle {
		r.env.Wake(h.p)
	}
	r.idle = nil
}
