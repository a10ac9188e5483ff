package main

import "kvcsd/internal/sim"

// simLoop lets the harness goroutine run closures inside a simulation: a main
// proc executes them one at a time and blocks on the channel in between, which
// freezes virtual time exactly as an idle server's gateway does.
type simLoop struct {
	cmds chan func(p *sim.Proc)
	done chan struct{}
}

// newSimLoop starts env; shutdown runs in the main proc after stop and must
// end every other proc so env.Run can return.
func newSimLoop(env *sim.Env, shutdown func(p *sim.Proc)) *simLoop {
	l := &simLoop{cmds: make(chan func(p *sim.Proc)), done: make(chan struct{})}
	env.Go("benchmark", func(p *sim.Proc) {
		for fn := range l.cmds {
			fn(p)
		}
		shutdown(p)
	})
	go func() {
		defer close(l.done)
		env.Run()
	}()
	return l
}

func (l *simLoop) do(fn func(p *sim.Proc)) {
	ack := make(chan struct{})
	l.cmds <- func(p *sim.Proc) {
		fn(p)
		close(ack)
	}
	<-ack
}

func (l *simLoop) stop() {
	close(l.cmds)
	<-l.done
}

// parallel runs fn(i) on n concurrent procs and joins them.
func parallel(p *sim.Proc, name string, n int, fn func(q *sim.Proc, i int)) {
	procs := make([]*sim.Proc, n)
	for i := range procs {
		procs[i] = p.Env().Go(name, func(q *sim.Proc) { fn(q, i) })
	}
	p.Join(procs...)
}
