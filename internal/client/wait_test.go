package client

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// statusOf returns the NVMe status behind err, or false when err is not a
// device status.
func statusOf(err error) (nvme.Status, bool) {
	var se *StatusError
	if !errors.As(err, &se) {
		return 0, false
	}
	return se.Status, true
}

// waitResult is what a proc parked in WaitCompacted or WaitIndexBuilt got.
type waitResult struct {
	done bool
	err  error
	at   sim.Time
}

// goWait runs wait on its own proc and records its outcome in r.
func goWait(fx *fixture, name string, r *waitResult, wait func(q *sim.Proc) error) *sim.Proc {
	return fx.env.Go(name, func(q *sim.Proc) {
		r.err = wait(q)
		r.done, r.at = true, q.Now()
	})
}

// TestPowerCutWakesParkedWaits: as in
// TestPowerCutWhileIndexBuildWaitsForCompaction, the cut lands while an index
// build is queued behind its compaction — and now a second proc sits parked
// in WaitIndexBuilt on it, and a third in WaitCompacted on a keyspace nobody
// compacts, whose wait no job will ever end. The cut answers both with
// StatusPoweredOff at once and Restart returns. Without that, Restart's
// quiesce loop would wait for the second answer forever; the watchdog turns
// that hang into a failure.
func TestPowerCutWakesParkedWaits(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, err := fx.cl.CreateKeyspace(p, "cut")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 200; i++ {
			_ = ks.BulkPut(p, key(i), value(i, float32(i%20)))
		}
		if err := ks.Compact(p); err != nil {
			t.Error(err)
			return
		}
		if err := ks.BuildSecondaryIndex(p, IndexSpec{Name: "e", Offset: 28, Length: 4, Type: keyenc.TypeFloat32}); err != nil {
			t.Error(err)
			return
		}
		idle, err := fx.cl.CreateKeyspace(p, "idle")
		if err != nil {
			t.Error(err)
			return
		}
		var index, compact waitResult
		goWait(fx, "wait-index", &index, func(q *sim.Proc) error { return ks.WaitIndexBuilt(q, "e") })
		goWait(fx, "wait-idle", &compact, idle.WaitCompacted)
		p.Sleep(20 * time.Microsecond) // both commands reach the device and park
		if index.done || compact.done {
			t.Errorf("a wait returned before the cut: index %+v, idle %+v", index, compact)
			return
		}

		restarted := false
		fx.env.Go("watchdog", func(q *sim.Proc) {
			for i := 0; i < 1000 && !restarted; i++ {
				q.Sleep(time.Millisecond)
			}
			if !restarted {
				panic("Restart did not return within 1 s: a parked status wait was never answered")
			}
		})
		cutAt := p.Now()
		fx.dev.PowerCut(p)
		if _, err := fx.dev.Restart(p); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		restarted = true
		for name, r := range map[string]waitResult{"WaitIndexBuilt": index, "WaitCompacted": compact} {
			if !r.done {
				t.Errorf("%s still parked after Restart", name)
				continue
			}
			if st, ok := statusOf(r.err); !ok || st != nvme.StatusPoweredOff {
				t.Errorf("%s returned %v, want a PoweredOff status", name, r.err)
			}
			if d := time.Duration(r.at - cutAt); d > 10*time.Microsecond {
				t.Errorf("%s answered %v after the cut, want at the cut (plus the completion transfer)", name, d)
			}
		}
	})
}

// TestShutdownAnswersParkedWait: a wait parked when the device shuts down is
// answered StatusAborted, so the simulation ends with nothing blocked.
func TestShutdownAnswersParkedWait(t *testing.T) {
	fx := newFixture()
	var r waitResult
	fx.run(t, func(p *sim.Proc) {
		idle, err := fx.cl.CreateKeyspace(p, "idle")
		if err != nil {
			t.Error(err)
			return
		}
		goWait(fx, "wait-idle", &r, idle.WaitCompacted)
		p.Sleep(20 * time.Microsecond)
	}) // fx.run shuts the device down when the body returns
	if st, ok := statusOf(r.err); !r.done || !ok || st != nvme.StatusAborted {
		t.Fatalf("parked wait at shutdown: done=%v err=%v, want an Aborted status", r.done, r.err)
	}
	if Retryable(r.err) {
		t.Fatalf("%v is retryable; the queue it waited on is gone", r.err)
	}
}

// TestParkedWaitsLeaveDispatchersFree: more waits park than the device has
// dispatch loops — one per compacting keyspace — and a foreground Get on
// another keyspace is still served while all of them wait.
func TestParkedWaitsLeaveDispatchersFree(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ready, err := fx.cl.CreateKeyspace(p, "ready")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 100; i++ {
			_ = ready.BulkPut(p, key(i), value(i, 0))
		}
		if err := ready.Compact(p); err != nil {
			t.Error(err)
			return
		}
		if err := ready.WaitCompacted(p); err != nil {
			t.Error(err)
			return
		}

		waiters := fx.dev.SoC().Config().Cores*4 + 4 // every dispatch loop, and then some
		busy := make([]*Keyspace, waiters)
		for w := range busy {
			if busy[w], err = fx.cl.CreateKeyspace(p, fmt.Sprintf("busy-%d", w)); err != nil {
				t.Error(err)
				return
			}
			// Enough pairs that every compaction outlasts issuing them all
			// and the Get: a smaller one sorts in DRAM and can finish first.
			for i := 0; i < 2400; i++ {
				_ = busy[w].BulkPut(p, key(i), value(i, 0))
			}
			if err := busy[w].Flush(p); err != nil {
				t.Error(err)
				return
			}
		}
		results := make([]waitResult, waiters)
		procs := make([]*sim.Proc, waiters)
		for w, ks := range busy {
			if err := ks.Compact(p); err != nil {
				t.Error(err)
				return
			}
			procs[w] = goWait(fx, "wait-busy", &results[w], ks.WaitCompacted)
		}
		p.Sleep(20 * time.Microsecond)

		v, found, err := ready.Get(p, key(7))
		if err != nil || !found || string(v) != string(value(7, 0)) {
			t.Errorf("foreground get: found=%v err=%v", found, err)
			return
		}
		returned := 0
		for _, r := range results {
			if r.done {
				returned++
			}
		}
		if returned > 0 {
			t.Errorf("the Get was served only after %d of %d parked waits had returned", returned, waiters)
			return
		}
		p.Join(procs...)
		for w, r := range results {
			if r.err != nil {
				t.Errorf("wait %d: %v", w, r.err)
			}
		}
	})
}

// TestWaitIndexBuiltUnknownIndex: a wait for an index nobody asked to build
// fails at once with a NotFound status instead of waiting forever.
func TestWaitIndexBuiltUnknownIndex(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, err := fx.cl.CreateKeyspace(p, "k")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 100; i++ {
			_ = ks.BulkPut(p, key(i), value(i, 0))
		}
		if err := ks.Compact(p); err != nil {
			t.Error(err)
			return
		}
		if err := ks.WaitCompacted(p); err != nil {
			t.Error(err)
			return
		}
		sent := fx.dev.Queue().Submitted()
		err = ks.WaitIndexBuilt(p, "never")
		if st, ok := statusOf(err); !ok || st != nvme.StatusNotFound || !errors.Is(err, ErrNotFound) {
			t.Errorf("WaitIndexBuilt on an unknown index: %v, want a NotFound status", err)
			return
		}
		if n := fx.dev.Queue().Submitted() - sent; n != 1 {
			t.Errorf("the wait took %d commands, want 1", n)
			return
		}
		// The non-blocking poll keeps its answer: not built, no error.
		if done, err := ks.IndexBuilt(p, "never"); done || err != nil {
			t.Errorf("IndexBuilt on an unknown index: done=%v err=%v", done, err)
			return
		}
	})
}
