package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/device"
	"kvcsd/internal/nvme"
	"kvcsd/internal/server"
	"kvcsd/internal/wire"
)

func startTestServer(t testing.TB) (*server.Server, string) {
	t.Helper()
	opts := device.DefaultOptions()
	opts.Seed = 11
	srv := server.NewDevice(opts, server.DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

// TestReconnectRetriesIdempotent kills the client's TCP connection out from
// under it and verifies the next idempotent call transparently redials and
// replays under the retry policy.
func TestReconnectRetriesIdempotent(t *testing.T) {
	_, addr := startTestServer(t)

	opts := DefaultOptions()
	opts.Retry = client.RetryPolicy{
		Timeout:     5 * time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		MaxAttempts: 5,
	}
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	ks, err := c.CreateKeyspace("r")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := ks.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := ks.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := ks.WaitCompacted(); err != nil {
		t.Fatalf("wait compacted: %v", err)
	}

	// Cut the wire under the client.
	c.mu.Lock()
	c.pool[0].nc.Close()
	c.mu.Unlock()

	// The next get must ride out the dead connection: broken-conn error,
	// redial, replay.
	v, ok, err := ks.Get([]byte("k"))
	if err != nil || !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("get after cut: v=%q ok=%v err=%v", v, ok, err)
	}
}

// TestPipelinedConcurrentCalls hammers one connection with concurrent
// requests to exercise the ID demux under the race detector.
func TestPipelinedConcurrentCalls(t *testing.T) {
	_, addr := startTestServer(t)
	opts := DefaultOptions()
	opts.Pipeline = 16
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	ks, err := c.CreateKeyspace("p")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if err := ks.Put(key(i), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := ks.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := ks.WaitCompacted(); err != nil {
		t.Fatalf("wait compacted: %v", err)
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			v, ok, err := ks.Get(key(i))
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				errs <- fmt.Errorf("get %d: ok=%v err=%v", i, ok, err)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("v%04d", i)) }

// TestRetryableClassification pins the retry matrix: client-library rules,
// transport sheds, connection loss — and nothing else.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{wire.ErrOverloaded, true},
		{wire.ErrShuttingDown, true},
		{wire.ErrUnavailable, true},
		{fmt.Errorf("%w: cut", errConnBroken), true},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{&client.StatusError{Op: nvme.OpRetrieve, Status: nvme.StatusInternal}, true},
		{&client.StatusError{Op: nvme.OpRetrieve, Status: nvme.StatusPoweredOff}, true},
		{&client.StatusError{Op: nvme.OpRetrieve, Status: nvme.StatusNotFound}, false},
		{&client.TimeoutError{Op: nvme.OpRetrieve, Timeout: time.Second}, true},
		{wire.ErrBadRequest, false},
		{errors.New("weird"), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestStatusErrorsMapToClientLibrary verifies a remote miss surfaces as
// client.ErrNotFound via errors.Is, so code written against the in-process
// client ports unchanged.
func TestStatusErrorsMapToClientLibrary(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, DefaultOptions())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if _, err := c.OpenKeyspace("missing"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("open missing: %v, want client.ErrNotFound", err)
	}
	ks, err := c.CreateKeyspace("m")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := ks.Put([]byte("yes"), []byte("v")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := ks.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := ks.WaitCompacted(); err != nil {
		t.Fatalf("wait compacted: %v", err)
	}
	if _, ok, err := ks.Get([]byte("nope")); ok || err != nil {
		t.Fatalf("miss: ok=%v err=%v, want clean miss", ok, err)
	}
	if _, err := c.CreateKeyspace("m"); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}
