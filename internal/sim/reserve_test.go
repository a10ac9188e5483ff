package sim

import (
	"slices"
	"testing"
	"time"
)

func TestReserveSerializesOnOneServer(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "ch", 1)
	e.Go("p", func(p *Proc) {
		d1 := r.Reserve(Foreground, 10*time.Millisecond).End()
		b2 := r.Reserve(Foreground, 10*time.Millisecond)
		if d1 != Time(10*time.Millisecond) || b2.End() != Time(20*time.Millisecond) {
			t.Errorf("reservations %v %v", d1, b2.End())
		}
		p.WaitBooking(b2)
		if p.Now() != b2.End() {
			t.Errorf("woke at %v", p.Now())
		}
	})
	e.Run()
}

func TestReserveAccountsBusyTime(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "x", 1)
	e.Go("p", func(p *Proc) {
		r.Reserve(Foreground, time.Second)
		r.Reserve(Background, time.Second)
	})
	e.Run()
	if r.BusyTime() != 2*time.Second {
		t.Fatalf("busy %v", r.BusyTime())
	}
	if r.Acquires() != 2 {
		t.Fatalf("acquires %d", r.Acquires())
	}
}

func TestReserveNegativeClamped(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "x", 1)
	e.Go("p", func(p *Proc) {
		if d := r.Reserve(Foreground, -time.Second).End(); d != 0 {
			t.Errorf("negative reserve %v", d)
		}
	})
	e.Run()
}

func TestSleepUntilPastIsNoop(t *testing.T) {
	e := NewEnv()
	e.Go("p", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		p.SleepUntil(Time(time.Millisecond)) // already past
		if p.Now() != Time(5*time.Millisecond) {
			t.Errorf("now %v", p.Now())
		}
	})
	e.Run()
}

func TestReserveAfterTimeAdvances(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "x", 1)
	e.Go("p", func(p *Proc) {
		p.Sleep(100 * time.Millisecond)
		// Server was idle; reservation starts now, not at 0.
		if d := r.Reserve(Background, time.Millisecond).End(); d != Time(101*time.Millisecond) {
			t.Errorf("reservation %v", d)
		}
	})
	e.Run()
}

// reservation is one Reserve call of a lane test: at virtual microsecond at,
// in lane, for dur microseconds.
type reservation struct {
	at, dur int
	lane    Lane
}

// reserveAll makes the reservations on a capacity-1 resource, in order, each
// at its instant, and returns the bookings and the instants a WaitBooking on
// each woke at.
func reserveAll(rs []reservation) ([]Booking, []Time) {
	e := NewEnv()
	r := NewResource(e, "ch", 1)
	books := make([]Booking, len(rs))
	woke := make([]Time, len(rs))
	e.Go("driver", func(p *Proc) {
		for i, rv := range rs {
			p.SleepUntil(Time(time.Duration(rv.at) * time.Microsecond))
			books[i] = r.Reserve(rv.lane, time.Duration(rv.dur)*time.Microsecond)
			e.Go("waiter", func(w *Proc) {
				w.WaitBooking(books[i])
				woke[i] = w.Now()
			})
		}
	})
	e.Run()
	return books, woke
}

// TestReserveLanes: a foreground booking goes after the operation in service
// and the queued foreground ones, ahead of every queued background one, which
// moves later by exactly the time it must — and WaitBooking wakes at the end
// as moved, however often it moved.
func TestReserveLanes(t *testing.T) {
	fg, bg := Foreground, Background
	for _, tc := range []struct {
		name string
		rs   []reservation
		ends []int // µs, per reservation
	}{
		{"foreground ahead of queued background",
			[]reservation{{0, 10, bg}, {0, 10, bg}, {1, 5, fg}},
			[]int{10, 25, 15}},
		{"foreground behind the operation in service",
			[]reservation{{0, 10, bg}, {2, 5, fg}, {3, 4, fg}},
			[]int{10, 15, 19}},
		{"foreground behind queued foreground",
			[]reservation{{0, 10, fg}, {0, 10, fg}, {0, 10, bg}, {1, 5, fg}},
			[]int{10, 20, 35, 25}},
		{"one booking pushed by several foreground reservations",
			[]reservation{{0, 10, bg}, {0, 10, bg}, {2, 5, fg}, {4, 3, fg}, {12, 2, fg}},
			[]int{10, 30, 15, 18, 20}},
		{"background behind everything",
			[]reservation{{0, 10, fg}, {1, 10, bg}, {2, 10, bg}, {25, 10, bg}},
			[]int{10, 20, 30, 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			books, woke := reserveAll(tc.rs)
			for i, b := range books {
				want := Time(time.Duration(tc.ends[i]) * time.Microsecond)
				if b.End() != want || woke[i] != want {
					t.Errorf("reservation %d %+v: ends %v, waiter woke at %v, want %v", i, tc.rs[i], b.End(), woke[i], want)
				}
			}
		})
	}
}

// fifoResource is Reserve as it was before lanes: every booking goes after
// every other on the earliest-free of its servers. A sequence with no
// foreground booking behind a queued background one must end every booking
// where this reference does.
type fifoResource struct {
	env    *Env
	freeAt []Time
}

func (r *fifoResource) reserve(d Duration) Time {
	if d < 0 {
		d = 0
	}
	best := 0
	for i := 1; i < len(r.freeAt); i++ {
		if r.freeAt[i] < r.freeAt[best] {
			best = i
		}
	}
	start := r.env.now
	if r.freeAt[best] > start {
		start = r.freeAt[best]
	}
	r.freeAt[best] = start.Add(d)
	return r.freeAt[best]
}

// decodeReservations turns fuzz bytes into reservations, three bytes each:
// the gap since the previous one, the lane (low bit) and the duration.
func decodeReservations(data []byte) []reservation {
	var rs []reservation
	at := 0
	for ; len(data) >= 3 && len(rs) < 64; data = data[3:] {
		at += int(data[0] % 16)
		rs = append(rs, reservation{at: at, dur: int(data[2] % 32), lane: Lane(data[1] & 1)})
	}
	return rs
}

func FuzzReserveLanes(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 1, 10, 1, 0, 5})
	f.Add([]byte{0, 1, 10, 0, 1, 10, 2, 0, 5, 2, 0, 3, 8, 0, 2, 3, 1, 0})
	f.Add([]byte{0, 0, 10, 0, 0, 10, 0, 1, 10, 1, 0, 5, 9, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		rs := decodeReservations(data)
		books, woke := reserveAll(rs)
		for i, b := range books {
			rv := rs[i]
			issue := Time(time.Duration(rv.at) * time.Microsecond)
			if b.End()-b.Start() != Time(time.Duration(rv.dur)*time.Microsecond) || b.Start() < issue {
				t.Fatalf("reservation %d %+v booked [%v, %v)", i, rv, b.Start(), b.End())
			}
			if woke[i] != b.End() {
				t.Fatalf("reservation %d: waiter woke at %v, booking ends %v", i, woke[i], b.End())
			}
		}
		// No two bookings overlap, and the server idles only while nothing
		// is booked: each booking starts at its issue or at the end of the
		// one before it.
		order := make([]int, len(books))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return int(books[a].Start() - books[b].Start()) })
		var prevEnd Time
		for _, i := range order {
			issue := Time(time.Duration(rs[i].at) * time.Microsecond)
			if b := books[i]; b.Start() != max(issue, prevEnd) && b.End() != b.Start() {
				t.Fatalf("reservation %d %+v starts at %v, after a booking ending %v", i, rs[i], b.Start(), prevEnd)
			}
			prevEnd = max(prevEnd, books[i].End())
		}
		// A background booking that had not started when a foreground one
		// was made starts after that one ends.
		for j, f := range rs {
			if f.lane != Foreground {
				continue
			}
			issue := Time(time.Duration(f.at) * time.Microsecond)
			for i := range j {
				if rs[i].lane == Background && books[i].Start() > issue && books[i].Start() < books[j].End() {
					t.Fatalf("background %d %+v starts at %v, inside foreground %d %+v ending %v", i, rs[i], books[i].Start(), j, f, books[j].End())
				}
			}
		}
		// One lane alone is a FIFO.
		for _, l := range []Lane{Foreground, Background} {
			one := slices.Clone(rs)
			for i := range one {
				one[i].lane = l
			}
			got, _ := reserveAll(one)
			e := NewEnv()
			ref := &fifoResource{env: e, freeAt: make([]Time, 1)}
			e.Go("ref", func(p *Proc) {
				for i, rv := range one {
					p.SleepUntil(Time(time.Duration(rv.at) * time.Microsecond))
					if want := ref.reserve(time.Duration(rv.dur) * time.Microsecond); got[i].End() != want {
						t.Errorf("%v only, reservation %d %+v: ends %v, FIFO %v", l, i, rv, got[i].End(), want)
					}
				}
			})
			e.Run()
		}
	})
}

// TestLaneInherited: a proc starts in its spawner's lane, one spawned outside
// a proc in the foreground, and a resident proc runs each unit in the lane of
// the proc that dispatched it.
func TestLaneInherited(t *testing.T) {
	e := NewEnv()
	var got []Lane
	note := func(p *Proc) { got = append(got, p.Lane()) }
	rp := NewResidentProcs(e, "worker", func(p *Proc, _ *struct{}) { note(p) })
	e.Go("fg", func(p *Proc) {
		note(p)
		bg := e.Go("bg", func(b *Proc) {
			b.SetLane(Background)
			b.Join(e.Go("child", note))
			rp.Dispatch()
			b.Yield()
		})
		p.Join(bg)
		rp.Dispatch() // to the proc the background one started
		p.Yield()
		rp.Release()
	})
	e.Run()
	if want := []Lane{Foreground, Background, Background, Foreground}; !slices.Equal(got, want) {
		t.Fatalf("lanes %v, want %v", got, want)
	}
}
