package remote

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func soakKey(i int) []byte { return []byte(fmt.Sprintf("soak-%06d", i)) }

// soakValue differs in every byte position between neighbouring items, so a
// value read out of a recycled frame body cannot pass for the right one.
func soakValue(i int) []byte {
	v := make([]byte, 96)
	for j := range v {
		v[j] = byte(i*131 + j*7)
	}
	return v
}

// preloadBase fills and compacts a keyspace the soak and the benchmark read.
func preloadBase(tb testing.TB, c *Client, n int) *Keyspace {
	tb.Helper()
	base, err := c.CreateKeyspace("base")
	if err != nil {
		tb.Fatalf("create base: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := base.BulkPut(soakKey(i), soakValue(i)); err != nil {
			tb.Fatalf("bulk put: %v", err)
		}
	}
	if err := base.Flush(); err != nil {
		tb.Fatalf("flush: %v", err)
	}
	if err := base.Compact(); err != nil {
		tb.Fatalf("compact: %v", err)
	}
	if err := base.WaitCompacted(); err != nil {
		tb.Fatalf("wait compacted: %v", err)
	}
	return base
}

// TestLoopbackSoakOwnership drives the whole buffer-ownership rule at once:
// sixteen callers put, get and scan through one server over loopback while
// every request body, response body, task and write buffer is being recycled
// under them. Every byte that comes back is checked, and what the puts wrote
// is read back at the end — under the race detector released bodies are
// poisoned, so a view kept past its release shows up as wrong bytes here.
func TestLoopbackSoakOwnership(t *testing.T) {
	_, addr := startTestServer(t)
	opts := DefaultOptions()
	opts.Conns = 2
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	const items, callers, rounds, scanLen = 512, 16, 60, 8
	base := preloadBase(t, c, items)
	w, err := c.CreateKeyspace("w")
	if err != nil {
		t.Fatalf("create w: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key, val := make([]byte, 0, 16), make([]byte, 0, 96)
			for r := 0; r < rounds; r++ {
				i := (g*rounds + r) * 7 % items
				// The caller's buffers are reused at once: the client must
				// have encoded them before Put returns, the server must have
				// copied them before it recycles the request body.
				key = append(key[:0], soakKey(g*rounds+r)...)
				val = append(val[:0], soakValue(g*rounds+r)...)
				if err := w.Put(key, val); err != nil {
					errs <- fmt.Errorf("put: %w", err)
					return
				}
				v, ok, err := base.Get(soakKey(i))
				if err != nil || !ok || !bytes.Equal(v, soakValue(i)) {
					errs <- fmt.Errorf("get %d: ok=%v err=%v value=%x", i, ok, err, v)
					return
				}
				start := min(i, items-scanLen)
				pairs, err := base.Scan(soakKey(start), nil, scanLen)
				if err != nil || len(pairs) != scanLen {
					errs <- fmt.Errorf("scan from %d: %d pairs, err=%v", start, len(pairs), err)
					return
				}
				for k, p := range pairs {
					if !bytes.Equal(p.Key, soakKey(start+k)) || !bytes.Equal(p.Value, soakValue(start+k)) {
						errs <- fmt.Errorf("scan from %d: pair %d is %q=%x", start, k, p.Key, p.Value)
						return
					}
				}
				// The value of the get must still be intact after the calls
				// that followed it: its body was handed to us, not pooled.
				if !bytes.Equal(v, soakValue(i)) {
					errs <- fmt.Errorf("get %d: value changed after later calls: %x", i, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := w.Compact(); err != nil {
		t.Fatalf("compact w: %v", err)
	}
	if err := w.WaitCompacted(); err != nil {
		t.Fatalf("wait compacted w: %v", err)
	}
	for i := 0; i < callers*rounds; i++ {
		v, ok, err := w.Get(soakKey(i))
		if err != nil || !ok || !bytes.Equal(v, soakValue(i)) {
			t.Fatalf("read back put %d: ok=%v err=%v value=%x", i, ok, err, v)
		}
	}
}

// BenchmarkLoopbackGet is one closed-loop caller issuing point gets through a
// server and a client over 127.0.0.1 — the request path of the remote-get
// workload, both sides of the socket in this process, so allocs/op counts
// client, server and device together.
func BenchmarkLoopbackGet(b *testing.B) {
	_, addr := startTestServer(b)
	c, err := Dial(addr, Options{})
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	defer c.Close()
	const items = 256
	base := preloadBase(b, c, items)
	keys := make([][]byte, items)
	for i := range keys {
		keys[i] = soakKey(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok, err := base.Get(keys[i%items])
		if err != nil || !ok || len(v) != 96 {
			b.Fatalf("get: ok=%v err=%v len=%d", ok, err, len(v))
		}
	}
}
