package remote

import (
	"errors"
	"testing"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/server"
	"kvcsd/internal/wire"
)

// waitSpec indexes the first four bytes of every soakValue.
var waitSpec = client.IndexSpec{Name: "head", Offset: 0, Length: 4, Type: keyenc.TypeUint32}

// loadUncompacted fills a fresh keyspace with n pairs and leaves it
// uncompacted.
func loadUncompacted(t *testing.T, c *Client, name string, n int) *Keyspace {
	t.Helper()
	ks, err := c.CreateKeyspace(name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	for i := 0; i < n; i++ {
		if err := ks.BulkPut(soakKey(i), soakValue(i)); err != nil {
			t.Fatalf("bulk put: %v", err)
		}
	}
	if err := ks.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return ks
}

// statusCount reads how many requests of op the server has answered.
func statusCount(srv *server.Server, op wire.Op) int64 {
	return srv.Metrics().PerOp[op].Count
}

// TestRemoteWaitIsOneRequest: WaitCompacted and WaitIndexBuilt each cross
// the wire as one wait-flagged status request, however long the job runs,
// and a wait for an index nobody asked to build fails NotFound at once.
func TestRemoteWaitIsOneRequest(t *testing.T) {
	srv, addr := startTestServer(t)
	c, err := Dial(addr, DefaultOptions())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	ks := loadUncompacted(t, c, "waited", 3000)
	if err := ks.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := ks.BuildSecondaryIndex(waitSpec); err != nil {
		t.Fatalf("build index: %v", err)
	}

	for _, w := range []struct {
		op   wire.Op
		wait func() error
	}{
		{wire.OpCompactStatus, ks.WaitCompacted},
		{wire.OpIndexStatus, func() error { return ks.WaitIndexBuilt(waitSpec.Name) }},
	} {
		before := statusCount(srv, w.op)
		if err := w.wait(); err != nil {
			t.Fatalf("%s wait: %v", w.op, err)
		}
		if got := statusCount(srv, w.op) - before; got != 1 {
			t.Errorf("%s wait took %d requests, want 1", w.op, got)
		}
	}
	if done, err := ks.IndexBuilt(waitSpec.Name); err != nil || !done {
		t.Fatalf("index after its wait: done=%v err=%v", done, err)
	}
	if err := ks.WaitIndexBuilt("never-declared"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("wait for an undeclared index: %v, want NotFound", err)
	}
}

// TestRemoteWaitOutlivesAttemptTimeout: a wait takes as long as its job, so
// the retry policy's attempt timeout does not cut it. The wait here is parked
// before the compaction starts, and the compaction starts only after three
// attempt timeouts have passed on the wall clock; a timed-out wait would be
// replayed and park once more per attempt.
func TestRemoteWaitOutlivesAttemptTimeout(t *testing.T) {
	const attempt = 20 * time.Millisecond
	srv, addr := startTestServer(t)
	opts := DefaultOptions()
	opts.Retry = client.RetryPolicy{Timeout: attempt, BaseBackoff: time.Millisecond, MaxAttempts: 4}
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	ks := loadUncompacted(t, c, "slow", 500)

	accepted := srv.Metrics().Accepted
	waited := make(chan error, 1)
	go func() { waited <- ks.WaitCompacted() }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Accepted == accepted {
		if time.Now().After(deadline) {
			t.Fatal("the wait never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(3 * attempt)
	if err := ks.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := <-waited; err != nil {
		t.Fatalf("wait compacted: %v", err)
	}
	if _, err := c.Stats(); err != nil { // every parked wait is answered by now
		t.Fatalf("stats: %v", err)
	}
	if got := statusCount(srv, wire.OpCompactStatus); got != 1 {
		t.Fatalf("the wait took %d CompactStatus requests, want 1", got)
	}
}

// TestRemoteWaitVirtualTimeDeterministic: with no poll left, time to
// queryable over the wire is a property of the seed, not of how fast the
// server runs. Two fresh servers with identical options see the same virtual
// time pass from the end of the load to the end of both waits.
func TestRemoteWaitVirtualTimeDeterministic(t *testing.T) {
	var deltas [2]int64
	for run := range deltas {
		_, addr := startTestServer(t)
		c, err := Dial(addr, DefaultOptions())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		ks := loadUncompacted(t, c, "det", 20000)
		before, err := c.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if err := ks.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if err := ks.BuildSecondaryIndex(waitSpec); err != nil {
			t.Fatalf("build index: %v", err)
		}
		// Both waits go out at once and park while the compaction of 20 000
		// pairs still runs, so the time to queryable ends with the index
		// build, whatever the socket round trips cost on the wall clock. (A
		// wait that reaches the server after its job ended is answered at
		// once but costs the gateway one more background slice.)
		waited := make(chan error, 2)
		go func() { waited <- ks.WaitCompacted() }()
		go func() { waited <- ks.WaitIndexBuilt(waitSpec.Name) }()
		for range 2 {
			if err := <-waited; err != nil {
				t.Fatalf("wait: %v", err)
			}
		}
		after, err := c.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		c.Close()
		deltas[run] = after.VirtualNanos - before.VirtualNanos
	}
	if deltas[0] != deltas[1] {
		t.Fatalf("time to queryable %v on one server, %v on its twin",
			time.Duration(deltas[0]), time.Duration(deltas[1]))
	}
	t.Logf("time to queryable: %v", time.Duration(deltas[0]))
}
