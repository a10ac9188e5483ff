package server

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"kvcsd/internal/client"
	"kvcsd/internal/device"
	"kvcsd/internal/nvme"
	"kvcsd/internal/remote"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// waitRig is a one-device server with two remote clients, each on its own
// connection, and a keyspace "cold" loaded but never compacted: a wait on it
// stays parked until something ends it.
type waitRig struct {
	srv    *Server
	waiter *remote.Client
	other  *remote.Client
	cold   *remote.Keyspace
}

func newWaitRig(t *testing.T, cfg Config) *waitRig {
	t.Helper()
	opts := device.DefaultOptions()
	opts.Seed = 17
	r := &waitRig{srv: NewDevice(opts, cfg)}
	addr, err := r.srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { r.srv.Close() })
	dial := func() *remote.Client {
		c, err := remote.Dial(addr.String(), remote.DefaultOptions())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	r.waiter, r.other = dial(), dial()
	r.cold = r.load(t, "cold", 2000)
	return r
}

func waitKey(i int) []byte   { return []byte(fmt.Sprintf("key-%06d", i)) }
func waitValue(i int) []byte { return []byte(fmt.Sprintf("value-%06d-padding-padding", i)) }

// load creates a keyspace on the other connection and bulk-loads n pairs.
func (r *waitRig) load(t *testing.T, name string, n int) *remote.Keyspace {
	t.Helper()
	ks, err := r.other.CreateKeyspace(name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	for i := 0; i < n; i++ {
		if err := ks.BulkPut(waitKey(i), waitValue(i)); err != nil {
			t.Fatalf("bulk put: %v", err)
		}
	}
	if err := ks.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return ks
}

// park sends WaitCompacted on cold from the waiter connection and returns
// once the server has admitted it; the wait's outcome arrives on the channel.
func (r *waitRig) park(t *testing.T) <-chan error {
	t.Helper()
	ks, err := r.waiter.OpenKeyspace("cold")
	if err != nil {
		t.Fatalf("open cold: %v", err)
	}
	accepted := r.srv.Metrics().Accepted
	out := make(chan error, 1)
	go func() { out <- ks.WaitCompacted() }()
	deadline := time.Now().Add(5 * time.Second)
	for r.srv.Metrics().Accepted == accepted {
		if time.Now().After(deadline) {
			t.Fatal("the wait never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	return out
}

// answer returns the parked wait's outcome, failing the test if it takes
// longer than d of wall time.
func answer(t *testing.T, waited <-chan error, d time.Duration) error {
	t.Helper()
	select {
	case err := <-waited:
		return err
	case <-time.After(d):
		t.Fatalf("the parked wait was not answered within %v", d)
		return nil
	}
}

// TestParkedRemoteWaitLeavesGatewayFree mirrors the device's
// TestParkedWaitsLeaveDispatchersFree one layer up: while a WaitCompacted is
// parked, a Get on a second connection is served, and the compaction that
// finally answers the wait is charged to the wait, not to the Get.
func TestParkedRemoteWaitLeavesGatewayFree(t *testing.T) {
	r := newWaitRig(t, DefaultConfig())
	hot := r.load(t, "hot", 200)
	if err := hot.Compact(); err != nil {
		t.Fatalf("compact hot: %v", err)
	}
	if err := hot.WaitCompacted(); err != nil {
		t.Fatalf("wait hot: %v", err)
	}

	waited := r.park(t)
	got := make(chan error, 1)
	go func() {
		v, ok, err := hot.Get(waitKey(7))
		if err == nil && (!ok || string(v) != string(waitValue(7))) {
			err = fmt.Errorf("got %q found=%v", v, ok)
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("get while a wait is parked: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a parked wait held the gateway: the Get was never served")
	}
	select {
	case err := <-waited:
		t.Fatalf("the wait returned (%v) before its keyspace was compacted", err)
	default:
	}

	if err := r.cold.Compact(); err != nil {
		t.Fatalf("compact cold: %v", err)
	}
	if err := answer(t, waited, 10*time.Second); err != nil {
		t.Fatalf("wait compacted: %v", err)
	}
	info, err := r.cold.Info()
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	m := r.srv.Metrics()
	get, wait := m.PerOp[wire.OpGet], m.PerOp[wire.OpCompactStatus]
	if time.Duration(info.CompactDur) <= 0 || get.Virtual >= time.Duration(info.CompactDur) {
		t.Errorf("gets took %v of virtual service, the compaction %v", get.Virtual, time.Duration(info.CompactDur))
	}
	if wait.Virtual < time.Duration(info.CompactDur) {
		t.Errorf("the waits were charged %v of virtual service, less than the %v compaction they waited out",
			wait.Virtual, time.Duration(info.CompactDur))
	}
}

// TestParkedRemoteWaitEndsOnEveryExit: a wait nobody's compaction will end is
// answered by a power cut (StatusPoweredOff) and by Close (StatusAborted), and
// Close does not sit out its drain timeout on it.
func TestParkedRemoteWaitEndsOnEveryExit(t *testing.T) {
	t.Run("power-cut", func(t *testing.T) {
		r := newWaitRig(t, DefaultConfig())
		waited := r.park(t)
		if _, err := r.other.PowerCut(0); err != nil {
			t.Fatalf("power cut: %v", err)
		}
		var se *client.StatusError
		if err := answer(t, waited, 10*time.Second); !errors.As(err, &se) || se.Status != nvme.StatusPoweredOff {
			t.Fatalf("wait across a power cut: %v, want StatusPoweredOff", err)
		}
	})
	t.Run("close", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.DrainTimeout = time.Minute
		r := newWaitRig(t, cfg)
		waited := r.park(t)
		start := time.Now()
		r.srv.Close()
		if took := time.Since(start); took > cfg.DrainTimeout/4 {
			t.Fatalf("Close took %v with a parked wait", took)
		}
		var se *client.StatusError
		if err := answer(t, waited, 10*time.Second); !errors.As(err, &se) || se.Status != nvme.StatusAborted {
			t.Fatalf("wait across Close: %v, want StatusAborted", err)
		}
	})
}

// drainBackend holds Gets on the gate like gateBackend, spends a millisecond
// of virtual time in every wait, and records whether Shutdown came while a
// wait was still under way.
type drainBackend struct {
	*gateBackend
	inWait      int
	shutMidWait bool
}

func (b *drainBackend) Apply(p *sim.Proc, req *wire.Request) *wire.Response {
	if !req.Wait {
		return b.gateBackend.Apply(p, req)
	}
	b.inWait++
	p.Sleep(time.Millisecond)
	b.inWait--
	return &wire.Response{Status: wire.StatusOK, Done: true}
}

func (b *drainBackend) Shutdown() { b.shutMidWait = b.inWait > 0 }

// TestDrainLetsWaitsFinish: a wait in the last batch the gateway takes before
// it drains leaves that batch at once, so the drain must let it finish before
// it shuts the backend down.
func TestDrainLetsWaitsFinish(t *testing.T) {
	b := &drainBackend{gateBackend: newGateBackend()}
	srv := New(sim.NewEnv(), b, DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()

	// The Get holds the gateway; the wait queues behind it, and the intake
	// closes with the wait still queued: it comes out in the final batch.
	sendReq(t, nc, &wire.Request{ID: 1, Op: wire.OpGet, Keyspace: "ks", Key: []byte("k")})
	waitInflight(t, srv, 1)
	sendReq(t, nc, &wire.Request{ID: 2, Op: wire.OpCompactStatus, Keyspace: "ks", Wait: true})
	waitInflight(t, srv, 2)
	srv.sched.CloseIntake()
	close(b.gate)
	srv.Close()
	for range 2 {
		if resp := readResp(t, nc); resp.Status != wire.StatusOK {
			t.Fatalf("request %d: %v", resp.ID, resp.Status)
		}
	}
	if b.shutMidWait {
		t.Fatal("the backend was shut down while a wait was still under way")
	}
}
