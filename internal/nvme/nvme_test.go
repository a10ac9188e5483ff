package nvme

import (
	"testing"
	"time"

	"kvcsd/internal/keyenc"
	"kvcsd/internal/sim"
)

func TestOpcodeStrings(t *testing.T) {
	if OpStore.String() != "Store" || OpBulkStore.String() != "BulkStore" ||
		OpQuerySecondaryRange.String() != "QuerySecondaryRange" {
		t.Fatal("opcode names wrong")
	}
	if Opcode(200).String() != "Opcode(200)" || (OpExist+1).String() != "Opcode(4)" {
		t.Fatal("unknown opcode name wrong")
	}
}

func TestStatusErr(t *testing.T) {
	if StatusOK.Err() != nil {
		t.Fatal("OK should be nil error")
	}
	if StatusNotFound.Err() == nil || StatusNotFound.Err().Error() != "nvme: NotFound" {
		t.Fatalf("err %v", StatusNotFound.Err())
	}
	if Status(99).String() != "Status(99)" {
		t.Fatal("unknown status string")
	}
}

func TestSecondarySpecValidate(t *testing.T) {
	ok := SecondaryIndexSpec{Name: "energy", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []SecondaryIndexSpec{
		{Name: "", Offset: 0, Length: 4, Type: keyenc.TypeFloat32},
		{Name: "x", Offset: -1, Length: 4, Type: keyenc.TypeFloat32},
		{Name: "x", Offset: 0, Length: 0, Type: keyenc.TypeBytes},
		{Name: "x", Offset: 0, Length: 3, Type: keyenc.TypeFloat32}, // width mismatch
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
	// Whether the range fits the values is the build's to find out.
	late := SecondaryIndexSpec{Name: "x", Offset: 1000, Length: 4, Type: keyenc.TypeFloat32}
	if err := late.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCommandWireSize(t *testing.T) {
	c := &Command{Op: OpStore, Key: make([]byte, 16), Value: make([]byte, 32)}
	if got := c.WireSize(); got != 64+48 {
		t.Fatalf("wire size %d", got)
	}
	bulk := &Command{Op: OpBulkStore, Pairs: []KVPair{
		{Key: make([]byte, 16), Value: make([]byte, 32)},
		{Key: make([]byte, 16), Value: make([]byte, 32)},
	}}
	if got := bulk.WireSize(); got != 64+2*(16+32+8) {
		t.Fatalf("bulk wire size %d", got)
	}
}

func TestCompletionWireSize(t *testing.T) {
	c := &Completion{Value: make([]byte, 100)}
	if c.WireSize() != 116 {
		t.Fatalf("size %d", c.WireSize())
	}
	q := &Completion{Pairs: []KVPair{{Key: make([]byte, 4), Value: make([]byte, 6)}}}
	if q.WireSize() != 16+18 {
		t.Fatalf("size %d", q.WireSize())
	}
}

func TestQueuePairRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	q := NewQueuePair(env, 8)
	var got *Completion
	env.Go("device", func(p *sim.Proc) {
		cmd, r := q.Pop(p)
		if cmd.Op != OpRetrieve || string(cmd.Key) != "k1" {
			t.Errorf("popped %v %q", cmd.Op, cmd.Key)
		}
		p.Sleep(10 * time.Microsecond) // device processing
		r.Complete(&Completion{Status: StatusOK, Value: []byte("v1")})
	})
	env.Go("host", func(p *sim.Proc) {
		h := q.Submit(p, &Command{Op: OpRetrieve, Key: []byte("k1")})
		got = h.Wait(p)
		if p.Now() != sim.Time(10*time.Microsecond) {
			t.Errorf("completion at %v", p.Now())
		}
	})
	env.Run()
	if got == nil || got.Status != StatusOK || string(got.Value) != "v1" {
		t.Fatalf("completion %+v", got)
	}
	if q.Submitted() != 1 || q.Completed() != 1 || q.Pending() != 0 {
		t.Fatalf("counters %d/%d/%d", q.Submitted(), q.Completed(), q.Pending())
	}
}

func TestQueuePairFIFO(t *testing.T) {
	env := sim.NewEnv()
	q := NewQueuePair(env, 16)
	var order []int
	env.Go("device", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			cmd, r := q.Pop(p)
			order = append(order, int(cmd.Key[0]))
			r.Complete(&Completion{Status: StatusOK})
		}
	})
	for i := 0; i < 5; i++ {
		i := i
		env.Go("host", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * time.Microsecond)
			h := q.Submit(p, &Command{Op: OpStore, Key: []byte{byte(i)}})
			h.Wait(p)
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v", order)
		}
	}
}

func TestQueueDepthBackpressure(t *testing.T) {
	env := sim.NewEnv()
	q := NewQueuePair(env, 1)
	var submitTimes []sim.Time
	env.Go("device", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			_, r := q.Pop(p)
			p.Sleep(time.Millisecond)
			r.Complete(&Completion{Status: StatusOK})
		}
	})
	env.Go("host", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			q.Submit(p, &Command{Op: OpStore})
			submitTimes = append(submitTimes, p.Now())
		}
	})
	env.Run()
	// With depth 1 and 1ms service, the 3rd submit cannot happen at t=0.
	if submitTimes[2] == 0 {
		t.Fatalf("no backpressure: %v", submitTimes)
	}
}

func TestHandleReady(t *testing.T) {
	env := sim.NewEnv()
	q := NewQueuePair(env, 4)
	env.Go("host", func(p *sim.Proc) {
		h := q.Submit(p, &Command{Op: OpSync})
		if h.Ready() {
			t.Error("handle ready before device ran")
		}
		// Device completes it.
		cmd, r := q.Pop(p)
		if cmd.Op != OpSync {
			t.Error("wrong op")
		}
		r.Complete(&Completion{Status: StatusOK})
		if !h.Ready() {
			t.Error("handle not ready after completion")
		}
		c := h.Wait(p)
		if c.Status != StatusOK {
			t.Error("bad status")
		}
	})
	env.Run()
}

func TestAsyncCompletionPattern(t *testing.T) {
	// The deferred-compaction pattern: submit returns quickly, host exits,
	// device finishes later.
	env := sim.NewEnv()
	q := NewQueuePair(env, 4)
	var hostDone, deviceDone sim.Time
	env.Go("device", func(p *sim.Proc) {
		cmd, r := q.Pop(p)
		r.Complete(&Completion{Status: StatusOK}) // ack immediately
		if cmd.Op != OpCompact {
			t.Error("wrong op")
		}
		p.Sleep(time.Second) // background compaction continues
		deviceDone = p.Now()
	})
	env.Go("host", func(p *sim.Proc) {
		h := q.Submit(p, &Command{Op: OpCompact})
		h.Wait(p)
		hostDone = p.Now()
	})
	env.Run()
	if hostDone != 0 {
		t.Fatalf("host should return immediately, got %v", hostDone)
	}
	if deviceDone != sim.Time(time.Second) {
		t.Fatalf("device finished at %v", deviceDone)
	}
}

func TestBadDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQueuePair(sim.NewEnv(), 0)
}

func TestMultipleDispatchersDrainQueue(t *testing.T) {
	env := sim.NewEnv()
	q := NewQueuePair(env, 32)
	served := 0
	for i := 0; i < 4; i++ {
		env.Go("dispatcher", func(p *sim.Proc) {
			for j := 0; j < 5; j++ {
				_, r := q.Pop(p)
				p.Sleep(time.Millisecond)
				r.Complete(&Completion{Status: StatusOK})
				served++
			}
		})
	}
	var end sim.Time
	env.Go("host", func(p *sim.Proc) {
		var hs []*Handle
		for i := 0; i < 20; i++ {
			hs = append(hs, q.Submit(p, &Command{Op: OpStore}))
		}
		for _, h := range hs {
			h.Wait(p)
		}
		end = p.Now()
	})
	env.Run()
	if served != 20 {
		t.Fatalf("served %d", served)
	}
	// 20 commands, 4 dispatchers, 1ms each => 5ms.
	if end != sim.Time(5*time.Millisecond) {
		t.Fatalf("end %v", end)
	}
}

func TestQueueCloseDrainsDispatchers(t *testing.T) {
	env := sim.NewEnv()
	q := NewQueuePair(env, 4)
	exited := 0
	for i := 0; i < 3; i++ {
		env.Go("dispatcher", func(p *sim.Proc) {
			for {
				cmd, _ := q.Pop(p)
				if cmd == nil {
					exited++
					return
				}
			}
		})
	}
	env.Go("closer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		q.Close()
		if !q.Closed() {
			t.Error("Closed() false after Close")
		}
	})
	env.Run()
	if exited != 3 {
		t.Fatalf("%d dispatchers exited", exited)
	}
}

func TestSubmitOnClosedQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env := sim.NewEnv()
	q := NewQueuePair(env, 4)
	q.Close()
	env.Go("p", func(p *sim.Proc) {
		q.Submit(p, &Command{Op: OpSync})
	})
	env.Run()
}

func TestPopDrainsQueueBeforeCloseReturnsNil(t *testing.T) {
	env := sim.NewEnv()
	q := NewQueuePair(env, 4)
	var served int
	env.Go("host", func(p *sim.Proc) {
		h := q.Submit(p, &Command{Op: OpSync})
		q.Close()
		// Already-queued commands still complete after Close.
		cmd, r := q.Pop(p)
		if cmd == nil {
			t.Error("queued command dropped at close")
			return
		}
		served++
		r.Complete(&Completion{Status: StatusOK})
		if c := h.Wait(p); c.Status != StatusOK {
			t.Error("completion lost")
		}
		if cmd2, _ := q.Pop(p); cmd2 != nil {
			t.Error("pop after drain should be nil")
		}
	})
	env.Run()
	if served != 1 {
		t.Fatalf("served %d", served)
	}
}

// TestRoundTripAllocatesOnce is the allocation budget of a command's trip
// through the queue pair: Submit, Pop, Complete and Wait share one allocation
// (the submission, which is also the Handle and the Responder).
func TestRoundTripAllocatesOnce(t *testing.T) {
	env := sim.NewEnv()
	q := NewQueuePair(env, 4)
	var allocs float64
	env.Go("both-ends", func(p *sim.Proc) {
		cmd := &Command{Op: OpRetrieve, Keyspace: "ks", Key: []byte("k")}
		done := Completion{Status: StatusOK, Value: []byte("v")}
		trip := func() {
			h := q.Submit(p, cmd)
			_, r := q.Pop(p)
			r.Complete(&done)
			if comp := h.Wait(p); comp.Status != StatusOK || len(comp.Value) != 1 {
				t.Errorf("completion %+v", comp)
			}
		}
		trip()
		allocs = testing.AllocsPerRun(200, trip)
	})
	env.Run()
	if allocs != 1 {
		t.Fatalf("submit+pop+complete+wait: %.1f allocs/op, want 1", allocs)
	}
}
