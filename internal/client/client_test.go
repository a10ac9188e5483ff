package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"kvcsd/internal/device"
	"kvcsd/internal/host"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

type fixture struct {
	env *sim.Env
	h   *host.Host
	dev *device.Device
	st  *stats.IOStats
	cl  *Client
}

func newFixture() *fixture {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	opts := device.DefaultOptions()
	opts.SSD = ssd.DefaultConfig()
	opts.SSD.ZoneSize = 256 << 10
	opts.SSD.NumZones = 2048
	opts.Engine.IngestBufferBytes = 16 << 10
	opts.Engine.SortBudgetBytes = 64 << 10
	opts.Engine.StripeWidth = 2
	dev := device.New(env, opts, st)
	h := host.New(env, host.DefaultHostConfig())
	return &fixture{env: env, h: h, dev: dev, st: st, cl: New(h, dev)}
}

func (fx *fixture) run(t *testing.T, fn func(p *sim.Proc)) sim.Time {
	if t != nil {
		t.Helper()
	}
	fx.env.Go("host-app", func(p *sim.Proc) {
		fn(p)
		fx.dev.Shutdown()
	})
	// Shutdown leaves dispatchers parked on an empty queue: wake them by
	// submitting nothing — they exit when the env detects quiescence only if
	// they returned, so send sentinel syncs from a drain process.
	return fx.env.Run()
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func value(i int, energy float32) []byte {
	v := make([]byte, 32)
	copy(v, fmt.Sprintf("payload-%06d", i))
	binary.LittleEndian.PutUint32(v[28:], math.Float32bits(energy))
	return v
}

func TestEndToEndPutCompactGet(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, err := fx.cl.CreateKeyspace(p, "particles")
		if err != nil {
			t.Fatal(err)
		}
		n := 2000
		for i := 0; i < n; i++ {
			if err := ks.BulkPut(p, key(i), value(i, float32(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ks.Compact(p); err != nil {
			t.Fatal(err)
		}
		if err := ks.WaitCompacted(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 61 {
			v, found, err := ks.Get(p, key(i))
			if err != nil || !found || !bytes.Equal(v, value(i, float32(i))) {
				t.Fatalf("get %d: found=%v err=%v", i, found, err)
			}
		}
		if _, found, err := ks.Get(p, []byte("absent")); err != nil || found {
			t.Fatalf("absent get: found=%v err=%v", found, err)
		}
	})
}

func TestCompactReturnsBeforeWorkFinishes(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, _ := fx.cl.CreateKeyspace(p, "k")
		for i := 0; i < 5000; i++ {
			_ = ks.BulkPut(p, key(i), value(i, 0))
		}
		// Ship the buffered puts first, so the ack timed is the compaction
		// command's alone, not the bulk flush Compact starts with.
		if err := ks.Flush(p); err != nil {
			t.Fatal(err)
		}
		t0 := p.Now()
		if err := ks.Compact(p); err != nil {
			t.Fatal(err)
		}
		ackTime := p.Now() - t0
		t1 := p.Now()
		if err := ks.WaitCompacted(p); err != nil {
			t.Fatal(err)
		}
		waitTime := p.Now() - t1
		if sim.Time(waitTime) <= sim.Time(ackTime)*5 {
			t.Fatalf("compaction ack %v vs wait %v: not asynchronous", sim.Time(ackTime), sim.Time(waitTime))
		}
	})
}

func TestScanRange(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, _ := fx.cl.CreateKeyspace(p, "k")
		for i := 0; i < 1000; i++ {
			_ = ks.BulkPut(p, key(i), value(i, 0))
		}
		_ = ks.Compact(p)
		_ = ks.WaitCompacted(p)
		pairs, err := ks.Scan(p, key(100), key(150), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != 50 {
			t.Fatalf("scan returned %d", len(pairs))
		}
		if !bytes.Equal(pairs[0].Key, key(100)) || !bytes.Equal(pairs[49].Key, key(149)) {
			t.Fatal("scan bounds wrong")
		}
		limited, _ := ks.Scan(p, nil, nil, 7)
		if len(limited) != 7 {
			t.Fatalf("limit ignored: %d", len(limited))
		}
	})
}

func TestSecondaryIndexEndToEnd(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, _ := fx.cl.CreateKeyspace(p, "k")
		n := 1000
		for i := 0; i < n; i++ {
			_ = ks.BulkPut(p, key(i), value(i, float32(i%100)))
		}
		_ = ks.Compact(p)
		if err := ks.BuildSecondaryIndex(p, IndexSpec{
			Name: "energy", Offset: 28, Length: 4, Type: keyenc.TypeFloat32,
		}); err != nil {
			t.Fatal(err)
		}
		if err := ks.WaitIndexBuilt(p, "energy"); err != nil {
			t.Fatal(err)
		}
		pairs, err := ks.QuerySecondaryRange(p, "energy",
			keyenc.PutFloat32(10), keyenc.PutFloat32(12), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != 2*(n/100) {
			t.Fatalf("secondary query matched %d, want %d", len(pairs), 2*(n/100))
		}
		point, err := ks.QuerySecondaryPoint(p, "energy", keyenc.PutFloat32(42), 0)
		if err != nil || len(point) != n/100 {
			t.Fatalf("point query: %d err=%v", len(point), err)
		}
		info, err := ks.Info(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != "COMPACTED" || info.Pairs != int64(n) || len(info.Secondary) != 1 {
			t.Fatalf("info %+v", info)
		}
	})
}

func TestExist(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, _ := fx.cl.CreateKeyspace(p, "k")
		_ = ks.Put(p, []byte("present"), []byte("v"))
		_ = ks.Compact(p)
		_ = ks.WaitCompacted(p)
		ok, err := ks.Exist(p, []byte("present"))
		if err != nil || !ok {
			t.Fatalf("exist: %v %v", ok, err)
		}
		ok, _ = ks.Exist(p, []byte("absent"))
		if ok {
			t.Fatal("absent exists")
		}
	})
}

func TestBulkPutFasterThanSinglePuts(t *testing.T) {
	// The paper reports bulk puts ~7x faster than regular puts.
	measure := func(bulk bool) sim.Time {
		fx := newFixture()
		var dur sim.Time
		fx.run(nil, func(p *sim.Proc) {
			ks, _ := fx.cl.CreateKeyspace(p, "k")
			t0 := p.Now()
			for i := 0; i < 2000; i++ {
				if bulk {
					_ = ks.BulkPut(p, key(i), value(i, 0))
				} else {
					_ = ks.Put(p, key(i), value(i, 0))
				}
			}
			_ = ks.Flush(p)
			dur = p.Now() - t0
		})
		return dur
	}
	single := measure(false)
	bulk := measure(true)
	if bulk*3 >= single {
		t.Fatalf("bulk put not meaningfully faster: single=%v bulk=%v", single, bulk)
	}
}

func TestErrorsSurfaceAsStatuses(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		if _, err := fx.cl.OpenKeyspace(p, "ghost"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("open ghost: %v", err)
		}
		ks, _ := fx.cl.CreateKeyspace(p, "k")
		if _, err := fx.cl.CreateKeyspace(p, "k"); err == nil {
			t.Fatal("duplicate create accepted")
		}
		// Query before compaction -> keyspace-state error.
		_ = ks.Put(p, []byte("x"), []byte("y"))
		if _, _, err := ks.Get(p, []byte("x")); err == nil {
			t.Fatal("get before compaction accepted")
		}
		// Delete then use.
		if err := fx.cl.DeleteKeyspace(p, "k"); err != nil {
			t.Fatal(err)
		}
		// A deleted keyspace reads as NotFound, surfaced as found=false.
		if _, found, _ := ks.Get(p, []byte("x")); found {
			t.Fatal("get after delete returned data")
		}
	})
}

func TestHostDeviceTrafficAccounted(t *testing.T) {
	fx := newFixture()
	fx.run(t, func(p *sim.Proc) {
		ks, _ := fx.cl.CreateKeyspace(p, "k")
		for i := 0; i < 500; i++ {
			_ = ks.BulkPut(p, key(i), value(i, 0))
		}
		_ = ks.Compact(p)
		_ = ks.WaitCompacted(p)
		h2d := fx.st.HostToDevice.Value()
		if h2d < 500*40 {
			t.Fatalf("h2d traffic %d too small", h2d)
		}
		// A point query moves only the value back.
		d2hBefore := fx.st.DeviceToHost.Value()
		_, _, _ = ks.Get(p, key(100))
		moved := fx.st.DeviceToHost.Value() - d2hBefore
		if moved > 64 {
			t.Fatalf("point get moved %d bytes back, want <= value+header", moved)
		}
	})
}

func TestConcurrentClients(t *testing.T) {
	fx := newFixture()
	fx.env.Go("main", func(p *sim.Proc) {
		var procs []*sim.Proc
		for w := 0; w < 8; w++ {
			w := w
			procs = append(procs, fx.env.Go(fmt.Sprintf("writer-%d", w), func(wp *sim.Proc) {
				ks, err := fx.cl.CreateKeyspace(wp, fmt.Sprintf("ks-%d", w))
				if err != nil {
					t.Errorf("create %d: %v", w, err)
					return
				}
				for i := 0; i < 300; i++ {
					if err := ks.BulkPut(wp, key(i), value(i, float32(w))); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
				if err := ks.Compact(wp); err != nil {
					t.Errorf("compact: %v", err)
				}
			}))
		}
		p.Join(procs...)
		_ = fx.dev.WaitBackgroundIdle(p)
		for w := 0; w < 8; w++ {
			ks, err := fx.cl.OpenKeyspace(p, fmt.Sprintf("ks-%d", w))
			if err != nil {
				t.Fatal(err)
			}
			v, found, err := ks.Get(p, key(7))
			if err != nil || !found || !bytes.Equal(v, value(7, float32(w))) {
				t.Fatalf("keyspace %d: found=%v err=%v", w, found, err)
			}
		}
		fx.dev.Shutdown()
	})
	fx.env.Run()
}

// TestCommandSpanNamesAreTabled: sendOnce names its span for every command,
// tracing on or off; the name must come out of the table built at start-up —
// the same string concatenation produced — without allocating.
func TestCommandSpanNamesAreTabled(t *testing.T) {
	var sink string
	for i := 0; i < 256; i++ {
		op := nvme.Opcode(i)
		if got, want := cmdSpanNames[op], "cmd:"+op.String(); got != want {
			t.Fatalf("span name of opcode %d = %q, want %q", i, got, want)
		}
	}
	op := nvme.OpRetrieve
	if n := testing.AllocsPerRun(100, func() { sink = cmdSpanNames[op] }); n != 0 {
		t.Fatalf("span name lookup allocates %.1f times", n)
	}
	_ = sink
}
