package sim

import (
	"testing"
	"time"
)

// Units run in dispatch order at the instant they were dispatched, on as many
// procs as were ever busy at once, and a reused proc finds its scratch again.
func TestResidentProcsReuse(t *testing.T) {
	type state struct {
		unit, runs int
		d          Duration
	}
	env := NewEnv()
	var order []int
	rp := NewResidentProcs(env, "worker", func(p *Proc, s *state) {
		order = append(order, s.unit)
		s.runs++
		p.Sleep(s.d)
	})
	env.Go("driver", func(p *Proc) {
		defer rp.Release()
		for round := 0; round < 3; round++ {
			for u := 0; u < 4; u++ {
				s := rp.Dispatch()
				s.unit, s.d = round*4+u, time.Duration(u+1)*time.Microsecond
			}
			p.Sleep(10 * time.Microsecond)
			if rp.Idle() != 4 {
				t.Errorf("round %d: %d procs parked, want 4", round, rp.Idle())
			}
		}
		runs := 0
		for rp.Idle() > 0 {
			runs += rp.Dispatch().runs
		}
		if runs != 12 {
			t.Errorf("the four procs remember %d runs, want 12", runs)
		}
	})
	env.Run()
	for i, u := range order[:12] {
		if u != i {
			t.Fatalf("units ran as %v", order)
		}
	}
}

// Release lets parked procs return at once and busy ones when their unit is
// done, so Run ends with nothing blocked; a dispatch after it still runs.
func TestResidentProcsRelease(t *testing.T) {
	env := NewEnv()
	ran := 0
	rp := NewResidentProcs(env, "worker", func(p *Proc, d *Duration) {
		p.Sleep(*d)
		ran++
	})
	env.Go("driver", func(p *Proc) {
		*rp.Dispatch() = time.Microsecond
		p.Sleep(2 * time.Microsecond) // parked
		*rp.Dispatch() = time.Microsecond
		*rp.Dispatch() = time.Millisecond // still busy at Release
		p.Sleep(2 * time.Microsecond)
		rp.Release()
		*rp.Dispatch() = time.Microsecond
	})
	env.Run() // panics on a proc left blocked
	if ran != 4 {
		t.Fatalf("%d units ran, want 4", ran)
	}
}

// A dispatch to a parked proc allocates nothing.
func TestResidentProcsDispatchAllocs(t *testing.T) {
	env := NewEnv()
	rp := NewResidentProcs(env, "worker", func(p *Proc, n *int) { *n++ })
	var allocs float64
	env.Go("driver", func(p *Proc) {
		defer rp.Release()
		unit := func() {
			rp.Dispatch()
			p.Yield()
		}
		unit()
		allocs = testing.AllocsPerRun(100, unit)
	})
	env.Run()
	if allocs != 0 {
		t.Fatalf("dispatch to a parked proc: %.1f allocs, want 0", allocs)
	}
}
