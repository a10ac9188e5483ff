package client

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"kvcsd/internal/sim"
)

// pairsPerMessage is how many key(i)/value(i) pairs fill one bulk message.
const pairsPerMessage = BulkMessageBytes/(12+32+8) + 1

// TestBulkPutStagingAllocs: a streaming bulk load copies every pair into the
// handle's message arena, which the next message reuses once the device has
// answered, so staging costs no allocation per pair — only the message's
// command and the device's side of it.
func TestBulkPutStagingAllocs(t *testing.T) {
	keys := make([][]byte, pairsPerMessage)
	vals := make([][]byte, pairsPerMessage)
	for i := range keys {
		keys[i], vals[i] = key(i), value(i, 1)
	}
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, err := fx.cl.CreateKeyspace(p, "k")
		if err != nil {
			t.Fatal(err)
		}
		message := func() {
			for i := range keys {
				if err = ks.BulkPut(p, keys[i], vals[i]); err != nil {
					return
				}
			}
		}
		message() // the arena and pair slice grow once
		n := testing.AllocsPerRun(5, message)
		if err != nil {
			t.Fatal(err)
		}
		if perPair := n / pairsPerMessage; perPair > 1.0/64 {
			t.Fatalf("one %d-pair message allocated %v times (%.3f per pair)", pairsPerMessage, n, perPair)
		}
		if ks.arena == nil {
			t.Fatal("an auto-flushed message dropped its arena")
		}
	})
}

// TestExplicitFlushDropsStaging: an explicit Flush hands the arena and pair
// slice over with the command, so an idle handle pins no message buffer.
func TestExplicitFlushDropsStaging(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, _ := fx.cl.CreateKeyspace(p, "k")
		for i := 0; i < pairsPerMessage+10; i++ {
			if err := ks.BulkPut(p, key(i), value(i, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ks.Flush(p); err != nil {
			t.Fatal(err)
		}
		if ks.arena != nil || ks.bulk != nil {
			t.Fatalf("handle holds %d arena bytes and %d pair slots after Flush", cap(ks.arena), cap(ks.bulk))
		}
	})
}

// TestAbandonedBulkMessageKeepsItsBytes: a message whose command timed out
// is still queued inside the device, which reads its pairs later; the next
// message must not reuse its arena, or the device ingests the next message's
// bytes under the abandoned one's keys.
func TestAbandonedBulkMessageKeepsItsBytes(t *testing.T) {
	const n = 3 * pairsPerMessage
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, _ := fx.cl.CreateKeyspace(p, "k")
		fx.cl.SetRetryPolicy(RetryPolicy{Timeout: time.Nanosecond, MaxAttempts: 1})
		timeouts := 0
		for i := 0; i < n; i++ {
			if err := ks.BulkPut(p, key(i), value(i, float32(i))); errors.Is(err, ErrTimeout) {
				timeouts++
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if timeouts == 0 {
			t.Fatal("no bulk message timed out")
		}
		fx.cl.SetRetryPolicy(RetryPolicy{})
		p.Sleep(100 * time.Millisecond) // the abandoned commands drain
		if err := ks.Compact(p); err != nil {
			t.Fatal(err)
		}
		if err := ks.WaitCompacted(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n-n%pairsPerMessage; i++ {
			v, ok, err := ks.Get(p, key(i))
			if err != nil || !ok || !bytes.Equal(v, value(i, float32(i))) {
				t.Fatalf("key %d: found=%v err=%v value %q", i, ok, err, v)
			}
		}
	})
}

// TestNoReuseAfterAnAbandonedAttempt: a retry can succeed after an attempt
// timed out, and the abandoned attempt still reads the same pairs inside the
// device, so a message during whose round trip any command was abandoned
// does not hand its arena to the next message.
func TestNoReuseAfterAnAbandonedAttempt(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, _ := fx.cl.CreateKeyspace(p, "k")
		for i := 0; i < pairsPerMessage-1; i++ {
			if err := ks.BulkPut(p, key(i), value(i, 1)); err != nil {
				t.Fatal(err)
			}
		}
		// While the message is in flight, a command times out.
		fx.env.Go("abandon", func(q *sim.Proc) {
			q.Sleep(time.Microsecond)
			fx.cl.abandoned++
		})
		if err := ks.BulkPut(p, key(pairsPerMessage), value(0, 1)); err != nil {
			t.Fatal(err)
		}
		if ks.arena != nil || ks.bulk != nil {
			t.Fatal("the next message reuses an arena a timed-out attempt may still read")
		}
	})
}
