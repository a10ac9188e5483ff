package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"kvcsd/internal/host"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

type sortFixture struct {
	env *sim.Env
	zm  *ZoneManager
	soc *host.Host
	cfg Config
}

func newSortFixture(budget int) *sortFixture {
	env := sim.NewEnv()
	scfg := ssd.DefaultConfig()
	scfg.ZoneSize = 256 << 10
	scfg.NumZones = 512
	dev := ssd.New(env, scfg, stats.NewIOStats())
	cfg := DefaultConfig()
	if budget > 0 {
		cfg.SortBudgetBytes = budget
	}
	cfg = cfg.sanitize()
	return &sortFixture{
		env: env,
		zm:  NewZoneManager(dev, cfg, sim.NewRNG(3)),
		soc: host.New(env, host.DefaultSoCConfig()),
		cfg: cfg,
	}
}

func (fx *sortFixture) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	fx.env.Go("test", fn)
	fx.env.Run()
}

func writeKlogCluster(t *testing.T, p *sim.Proc, fx *sortFixture, n int, keyOf func(i int) []byte) *Cluster {
	t.Helper()
	c := fx.zm.NewCluster(ZoneKLOG)
	codec := klogCodec{}
	var buf []byte
	for i := 0; i < n; i++ {
		buf = codec.Encode(buf, klogEntry{key: keyOf(i), vlen: 32, vlogOff: uint64(i) * 32})
		if len(buf) > 64<<10 {
			if err := c.Append(p, buf); err != nil {
				t.Fatal(err)
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if err := c.Append(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Seal(p); err != nil {
		t.Fatal(err)
	}
	return c
}

func collectSorted(t *testing.T, p *sim.Proc, out *Cluster) []klogEntry {
	t.Helper()
	sc := newScanner(out, klogCodec{}, 0)
	var got []klogEntry
	for {
		rec, ok, err := sc.next(p)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return got
		}
		rec.key = bytes.Clone(rec.key) // the scanner takes its view back
		got = append(got, rec)
	}
}

func TestSorterSingleRun(t *testing.T) {
	fx := newSortFixture(1 << 20)
	fx.run(t, func(p *sim.Proc) {
		in := writeKlogCluster(t, p, fx, 500, func(i int) []byte {
			return []byte(fmt.Sprintf("k-%04d", (i*7919)%10000))
		})
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		out, err := s.SortCluster(p, in)
		if err != nil {
			t.Fatal(err)
		}
		if s.runs != 1 || s.merges != 0 {
			t.Fatalf("runs=%d merges=%d, want 1/0", s.runs, s.merges)
		}
		got := collectSorted(t, p, out)
		if len(got) != 500 {
			t.Fatalf("got %d records", len(got))
		}
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1].key, got[i].key) > 0 {
				t.Fatal("output not sorted")
			}
		}
	})
}

func TestSorterMultiRunMerge(t *testing.T) {
	fx := newSortFixture(4 << 10) // tiny budget forces many runs
	fx.run(t, func(p *sim.Proc) {
		n := 3000
		in := writeKlogCluster(t, p, fx, n, func(i int) []byte {
			return []byte(fmt.Sprintf("k-%05d", (i*104729)%99991))
		})
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		out, err := s.SortCluster(p, in)
		if err != nil {
			t.Fatal(err)
		}
		if s.runs < 2 {
			t.Fatalf("expected multiple runs, got %d", s.runs)
		}
		if s.merges < 1 {
			t.Fatal("expected at least one merge")
		}
		got := collectSorted(t, p, out)
		if len(got) != n {
			t.Fatalf("got %d of %d records", len(got), n)
		}
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1].key, got[i].key) > 0 {
				t.Fatal("output not sorted")
			}
		}
	})
}

func TestSorterMultiPassWhenRunsExceedFanin(t *testing.T) {
	fx := newSortFixture(2 << 10)
	fx.cfg.MergeFanin = 2 // force multiple merge rounds
	fx.run(t, func(p *sim.Proc) {
		n := 2000
		in := writeKlogCluster(t, p, fx, n, func(i int) []byte {
			return []byte(fmt.Sprintf("k-%05d", (n-i)*3%99991))
		})
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		out, err := s.SortCluster(p, in)
		if err != nil {
			t.Fatal(err)
		}
		// A 2-way merge folds two runs into one, so merging them all takes
		// runs-1 merges at least, over several passes.
		if s.runs <= 2 || s.merges < s.runs-1 {
			t.Fatalf("expected %d runs to merge in several passes with fanin 2, got %d merges", s.runs, s.merges)
		}
		got := collectSorted(t, p, out)
		if len(got) != n {
			t.Fatalf("record count %d", len(got))
		}
	})
}

func TestSorterEmptyInput(t *testing.T) {
	fx := newSortFixture(0)
	fx.run(t, func(p *sim.Proc) {
		in := fx.zm.NewCluster(ZoneKLOG)
		_ = in.Seal(p)
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		out, err := s.SortCluster(p, in)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 0 {
			t.Fatal("empty sort produced data")
		}
	})
}

func TestSorterStability(t *testing.T) {
	// Equal keys must keep the higher-vlogOff entry first (recency rule).
	fx := newSortFixture(2 << 10)
	fx.run(t, func(p *sim.Proc) {
		in := fx.zm.NewCluster(ZoneKLOG)
		codec := klogCodec{}
		var buf []byte
		for i := 0; i < 500; i++ {
			buf = codec.Encode(buf, klogEntry{key: []byte("dup"), vlen: 8, vlogOff: uint64(i * 8)})
		}
		_ = in.Append(p, buf)
		_ = in.Seal(p)
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		out, err := s.SortCluster(p, in)
		if err != nil {
			t.Fatal(err)
		}
		got := collectSorted(t, p, out)
		for i := 1; i < len(got); i++ {
			if got[i-1].vlogOff < got[i].vlogOff {
				t.Fatal("duplicate ordering violated (newest first)")
			}
		}
	})
}

func TestSorterReleasesTempZones(t *testing.T) {
	fx := newSortFixture(2 << 10)
	fx.run(t, func(p *sim.Proc) {
		in := writeKlogCluster(t, p, fx, 2000, func(i int) []byte {
			return []byte(fmt.Sprintf("k-%05d", (i*31)%1000))
		})
		used0 := fx.zm.UsedZones()
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		out, err := s.SortCluster(p, in)
		if err != nil {
			t.Fatal(err)
		}
		// Only the output (and original input) should remain allocated.
		extra := fx.zm.UsedZones() - used0 - len(out.Zones())
		if extra != 0 {
			t.Fatalf("%d temp zones leaked", extra)
		}
	})
}

func TestSortToStreamsInOrder(t *testing.T) {
	fx := newSortFixture(2 << 10)
	fx.run(t, func(p *sim.Proc) {
		in := writeKlogCluster(t, p, fx, 1500, func(i int) []byte {
			return []byte(fmt.Sprintf("k-%05d", (1500-i)*7%9973))
		})
		s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
		var prev []byte
		count := 0
		err := s.SortTo(p, newScanner(in, klogCodec{}, 0), func(sp *sim.Proc, rec klogEntry) error {
			if prev != nil && bytes.Compare(prev, rec.key) > 0 {
				return fmt.Errorf("out of order")
			}
			prev = append(prev[:0], rec.key...)
			count++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 1500 {
			t.Fatalf("emitted %d", count)
		}
	})
}

func TestSorterPropertySortsArbitraryKeys(t *testing.T) {
	f := func(keys [][]byte) bool {
		if len(keys) == 0 || len(keys) > 500 {
			return true
		}
		for _, k := range keys {
			if len(k) > 64 {
				return true
			}
		}
		fx := newSortFixture(1 << 10)
		ok := true
		fx.run(t, func(p *sim.Proc) {
			in := fx.zm.NewCluster(ZoneKLOG)
			codec := klogCodec{}
			var buf []byte
			for i, k := range keys {
				buf = codec.Encode(buf, klogEntry{key: k, vlen: 1, vlogOff: uint64(i)})
			}
			if err := in.Append(p, buf); err != nil {
				ok = false
				return
			}
			_ = in.Seal(p)
			s := NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog)
			out, err := s.SortCluster(p, in)
			if err != nil {
				ok = false
				return
			}
			got := collectSorted(t, p, out)
			if len(got) != len(keys) {
				ok = false
				return
			}
			for i := 1; i < len(got); i++ {
				if bytes.Compare(got[i-1].key, got[i].key) > 0 {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestScannerCorruptTail(t *testing.T) {
	fx := newSortFixture(0)
	fx.run(t, func(p *sim.Proc) {
		c := fx.zm.NewCluster(ZoneKLOG)
		codec := klogCodec{}
		buf := codec.Encode(nil, klogEntry{key: []byte("ok"), vlen: 1, vlogOff: 0})
		buf = append(buf, 0xFF, 0x07) // truncated header
		_ = c.Append(p, buf)
		_ = c.Seal(p)
		sc := newScanner(c, klogCodec{}, 0)
		if _, ok, err := sc.next(p); err != nil || !ok {
			t.Fatalf("first record: ok=%v err=%v", ok, err)
		}
		if _, _, err := sc.next(p); err == nil {
			t.Fatal("corrupt tail not detected")
		}
	})
}
