package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateOrder = flag.Bool("update-order", false, "rewrite testdata/dispatch_order.golden from the kernel under test")

// dispatchOrder runs a seeded random mix of every scheduling primitive and
// returns one "<virtual ns> <proc id>" line per dispatch: a proc logs when it
// starts and each time a call that may yield returns. The per-proc programs
// are drawn from forked RNG streams, so they do not depend on interleaving —
// only the log does.
func dispatchOrder(seed int64) []byte {
	e := NewEnv()
	root := NewRNG(seed)
	res := []*Resource{NewResource(e, "r1", 1), NewResource(e, "r2", 2), NewResource(e, "r3", 3)}
	evs := make([]*Event, 8)
	for i := range evs {
		evs[i] = NewEvent(e)
	}
	var (
		log    bytes.Buffer
		parked []*Proc
		live   int
	)
	mark := func(p *Proc) { fmt.Fprintf(&log, "%d %d\n", int64(p.Now()), p.ID()) }

	var body func(rng *RNG, steps, depth int) func(p *Proc)
	body = func(rng *RNG, steps, depth int) func(p *Proc) {
		return func(p *Proc) {
			defer func() { live-- }()
			mark(p)
			for s := 0; s < steps; s++ {
				switch rng.Intn(10) {
				case 0: // zero sleep: same-instant FIFO interleaving
					p.Sleep(0)
				case 1, 2: // few distinct durations, so timestamps collide
					p.Sleep(Duration(rng.Intn(4)) * time.Microsecond)
				case 3:
					r := res[rng.Intn(len(res))]
					p.Acquire(r)
					mark(p)
					p.Sleep(Duration(rng.Intn(3)) * time.Microsecond)
					mark(p)
					p.Release(r)
					continue
				case 4:
					p.Use(res[rng.Intn(len(res))], Duration(rng.Intn(3))*time.Microsecond)
				case 5:
					p.Wait(evs[rng.Intn(len(evs))])
				case 6:
					evs[rng.Intn(len(evs))].Signal()
					continue
				case 7:
					parked = append(parked, p)
					p.Block()
				case 8:
					if len(parked) > 0 {
						e.Wake(parked[0])
						parked = parked[1:]
					}
					continue
				case 9:
					if depth == 0 {
						p.Yield()
						break
					}
					live++
					child := e.Go("child", body(rng.Fork(int64(s)), steps/2, depth-1))
					if rng.Intn(2) == 0 {
						p.Join(child)
					} else {
						continue
					}
				}
				mark(p)
			}
		}
	}
	for i := 0; i < 12; i++ {
		live++
		e.Go("w", body(root.Fork(int64(i)), 24, 2))
	}
	// The sweeper guarantees progress: it fires every event in turn and wakes
	// whatever is parked until all workers have returned.
	e.Go("sweeper", func(p *Proc) {
		for i := 0; live > 0; i++ {
			p.Sleep(7 * time.Microsecond)
			mark(p)
			evs[i%len(evs)].Signal()
			for _, q := range parked {
				e.Wake(q)
			}
			parked = nil
		}
	})
	e.Run()
	return log.Bytes()
}

// TestDispatchOrderGolden pins the kernel's dispatch order to the log the
// two-channel scheduler-goroutine kernel produced for the same seeds
// (recorded with -update-order before that kernel was replaced).
func TestDispatchOrderGolden(t *testing.T) {
	var got bytes.Buffer
	for _, seed := range []int64{1, 2} {
		fmt.Fprintf(&got, "# seed %d\n", seed)
		got.Write(dispatchOrder(seed))
	}
	path := filepath.Join("testdata", "dispatch_order.golden")
	if *updateOrder {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("dispatch %d: got %q, want %q (%d vs %d lines)", i, gl[i], wl[i], len(gl), len(wl))
		}
	}
	t.Fatalf("dispatch log length %d lines, want %d", len(gl), len(wl))
}
