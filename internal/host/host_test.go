package host

import (
	"testing"
	"time"

	"kvcsd/internal/sim"
)

func TestComputeScalesBySpeed(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultSoCConfig()
	cfg.Speed = 0.5
	h := New(env, cfg)
	var end sim.Time
	env.Go("w", func(p *sim.Proc) {
		h.Compute(p, time.Millisecond)
		end = p.Now()
	})
	env.Run()
	if end != sim.Time(2*time.Millisecond) {
		t.Fatalf("end %v, want 2ms", end)
	}
}

func TestCoreContention(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultHostConfig()
	cfg.Cores = 2
	h := New(env, cfg)
	var last sim.Time
	for i := 0; i < 4; i++ {
		env.Go("w", func(p *sim.Proc) {
			h.Compute(p, time.Millisecond)
			last = p.Now()
		})
	}
	env.Run()
	// 4 jobs, 2 cores, 1ms each => 2ms.
	if last != sim.Time(2*time.Millisecond) {
		t.Fatalf("last %v", last)
	}
}

// TestMeterCountsWait: an account counts the time its charges waited for a
// core, from request to grant, and waiting takes no more virtual time than
// the contention itself: four 1 ms charges on two cores still end at 2 ms,
// and the two that queued waited 1 ms each. Split shares wait like any other
// charge, and the empty account counts nothing.
func TestMeterCountsWait(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultHostConfig()
	cfg.Cores = 2
	h := New(env, cfg)
	a, b := h.Account("a"), h.Account("b")
	var last sim.Time
	for _, m := range []Meter{a, a, b, b} {
		env.Go("w", func(p *sim.Proc) {
			m.Compute(p, time.Millisecond)
			last = p.Now()
		})
	}
	env.Run()
	if last != sim.Time(2*time.Millisecond) {
		t.Fatalf("last %v, want 2ms", last)
	}
	if wa, wb := a.WaitNs().Value(), b.WaitNs().Value(); wa != 0 || wb != int64(2*time.Millisecond) {
		t.Errorf("waited a %d ns, b %d ns; want 0 and 2ms", wa, wb)
	}
	// A core held for 1 ms leaves one free for two 1 ms shares: one waits.
	env = sim.NewEnv()
	h = New(env, cfg)
	env.Go("hold", func(p *sim.Proc) { h.Compute(p, time.Millisecond) })
	env.Go("shares", func(p *sim.Proc) { h.Account("s").ComparesSplit(p, []int64{25000, 25000}) })
	env.Run()
	if ws := h.Account("s").WaitNs().Value(); ws != int64(time.Millisecond) {
		t.Errorf("split shares waited %d ns, want 1ms", ws)
	}
	if h.Account("").WaitNs() != nil {
		t.Errorf("the empty account counts waits")
	}
}

func TestZeroComputeFree(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, DefaultHostConfig())
	env.Go("w", func(p *sim.Proc) {
		h.Compute(p, 0)
		h.Compute(p, -time.Second)
		if p.Now() != 0 {
			t.Errorf("time advanced: %v", p.Now())
		}
	})
	env.Run()
}

// TestComparesSplit: shares charged on as many cores cost, to the
// nanosecond, what their sum costs on one, and take the largest share's time
// when the cores are free. The SoC's speed makes every share's cost
// fractional, so shares priced one by one would not sum exactly.
func TestComparesSplit(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, DefaultSoCConfig())
	shares := []int64{1001, 999, 1000}
	var took sim.Time
	env.Go("job", func(p *sim.Proc) {
		h.Account("").ComparesSplit(p, shares)
		took = p.Now()
	})
	env.Run()
	cost := func(n int64) time.Duration {
		return time.Duration(float64(time.Duration(n)*h.Config().CompareCost) / h.Config().Speed)
	}
	if busy, want := h.CPU().BusyTime(), cost(3000); busy != want {
		t.Errorf("busy %v, want the sum's %v", busy, want)
	}
	if want := sim.Time(cost(1001)); took != want {
		t.Errorf("took %v, want the largest share's %v", took, want)
	}
	if got := h.CPU().MaxInUse(); got != len(shares) {
		t.Errorf("%d cores held at once, want %d", got, len(shares))
	}
}

// TestComparesAfter: a step charged in pieces at running totals costs, to
// the nanosecond, one charge of all its comparisons, where pieces priced one
// by one fall short by up to a nanosecond each.
func TestComparesAfter(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, DefaultSoCConfig())
	pieces := []int64{427, 431, 429, 0, 428, 430, 426, 429}
	var total int64
	env.Go("job", func(p *sim.Proc) {
		for _, n := range pieces {
			h.Account("").ComparesAfter(p, total, n)
			total += n
		}
	})
	env.Run()
	cost := func(n int64) time.Duration {
		return time.Duration(float64(time.Duration(n)*h.Config().CompareCost) / h.Config().Speed)
	}
	var alone time.Duration
	for _, n := range pieces {
		alone += cost(n)
	}
	if busy, want := h.CPU().BusyTime(), cost(total); busy != want {
		t.Errorf("busy %v, want one charge of all %d comparisons, %v", busy, total, want)
	}
	if alone == cost(total) {
		t.Errorf("pieces priced one by one cost %v, as their sum does: the case shows no drift", alone)
	}
}

func TestChargeHelpers(t *testing.T) {
	env := sim.NewEnv()
	cfg := Config{Name: "t", Cores: 1, Speed: 1,
		SyscallCost: time.Microsecond, MemBandwidth: 1e9,
		KVOpCost: 100 * time.Nanosecond, CompareCost: 10 * time.Nanosecond,
		BlockOpCost: time.Microsecond}
	h := New(env, cfg)
	var end sim.Time
	env.Go("w", func(p *sim.Proc) {
		h.Syscall(p)       // 1µs
		h.Copy(p, 1000)    // 1µs
		h.KVOp(p, 10)      // 1µs
		h.Compares(p, 100) // 1µs
		h.BlockOp(p, 1)    // 1µs
		end = p.Now()
	})
	env.Run()
	if end != sim.Time(5*time.Microsecond) {
		t.Fatalf("end %v, want 5µs", end)
	}
}

func TestSortCost(t *testing.T) {
	h := New(sim.NewEnv(), Config{Name: "t", Cores: 1, Speed: 1, CompareCost: 10 * time.Nanosecond})
	if h.SortCost(0) != 0 || h.SortCost(1) != 0 {
		t.Fatal("trivial sorts should be free")
	}
	// 1024 keys, log2=10 => 10240 comparisons => 102.4µs
	if got := h.SortCost(1024); got != 102400*time.Nanosecond {
		t.Fatalf("SortCost(1024) = %v", got)
	}
	if h.SortCost(1<<20) <= h.SortCost(1<<10) {
		t.Fatal("sort cost not increasing")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "bad", Cores: 0, Speed: 1},
		{Name: "bad", Cores: 4, Speed: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(sim.NewEnv(), cfg)
		}()
	}
}

func TestDefaultsSane(t *testing.T) {
	hc, sc := DefaultHostConfig(), DefaultSoCConfig()
	if hc.Cores != 32 || sc.Cores != 4 {
		t.Fatal("core counts should match Table I")
	}
	if sc.Speed >= hc.Speed {
		t.Fatal("SoC cores should be slower than host cores")
	}
	if sc.SyscallCost != 0 {
		t.Fatal("SPDK userspace driver should have no syscall cost")
	}
}

// TestAccountsSumToBusy: charges through named accounts add to BusyNs and to
// their share in one step, a name names one share, and a Host's own methods
// (the empty account) count only into BusyNs.
func TestAccountsSumToBusy(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, DefaultSoCConfig())
	var a, b, busy int64
	env.Go("w", func(p *sim.Proc) {
		h.Account("a").Compares(p, 7)
		h.Account("b").BlockOp(p, 3)
		h.Account("a").Copy(p, 4096)
		h.Account("b").KVOp(p, 5)
		a, b, busy = h.Account("a").Ns().Value(), h.Account("b").Ns().Value(), h.BusyNs().Value()
		h.Compares(p, 9)
		h.Account("").Compares(p, 9)
	})
	env.Run()
	if a == 0 || b == 0 || a+b != busy {
		t.Fatalf("accounts %d + %d, busy %d", a, b, busy)
	}
	if h.BusyNs().Value() == busy || h.Account("a").Ns().Value() != a || h.Account("b").Ns().Value() != b {
		t.Fatalf("the host's own charge moved an account or missed BusyNs")
	}
	if got := int64(h.CPU().BusyTime()); got != h.BusyNs().Value() {
		t.Fatalf("pool busy %d, BusyNs %d", got, h.BusyNs().Value())
	}
}
