package rocks

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"kvcsd/internal/host"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
	"kvcsd/internal/vfs"
)

type dbFixture struct {
	env *sim.Env
	h   *host.Host
	fs  *vfs.FS
	st  *stats.IOStats
	rng *sim.RNG
}

func newDBFixture() *dbFixture {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	scfg := ssd.DefaultConfig()
	scfg.ConvBlocks = 1 << 20 // 4 GiB
	dev := ssd.New(env, scfg, st)
	h := host.New(env, host.DefaultHostConfig())
	fsys := vfs.New(dev, h, vfs.DefaultConfig(), st)
	return &dbFixture{env: env, h: h, fs: fsys, st: st, rng: sim.NewRNG(99)}
}

// smallOpts returns options sized so tests exercise flushes and compactions.
func smallOpts(mode CompactionMode) Options {
	o := DefaultOptions()
	o.MemtableBytes = 32 << 10
	o.BaseLevelBytes = 128 << 10
	o.TargetFileBytes = 64 << 10
	o.CompactionMode = mode
	return o
}

func (fx *dbFixture) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	fx.env.Go("test", fn)
	fx.env.Run()
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key-%08d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%08d-%032d", i, i)) }

func TestPutGetRoundTrip(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, err := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionAuto))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			if err := db.Put(p, key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1000; i++ {
			v, found, err := db.Get(p, key(i))
			if err != nil || !found || !bytes.Equal(v, value(i)) {
				t.Fatalf("get %d: found=%v err=%v v=%q", i, found, err, v)
			}
		}
		if _, found, _ := db.Get(p, []byte("missing")); found {
			t.Fatal("missing key found")
		}
		if err := db.Close(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOverwriteReturnsNewest(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionAuto))
		_ = db.Put(p, []byte("k"), []byte("v1"))
		_ = db.Put(p, []byte("k"), []byte("v2"))
		_ = db.Flush(p)
		_ = db.Put(p, []byte("k"), []byte("v3"))
		v, found, _ := db.Get(p, []byte("k"))
		if !found || string(v) != "v3" {
			t.Fatalf("got %q", v)
		}
		_ = db.Close(p)
	})
}

func TestDeleteHidesKey(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionAuto))
		_ = db.Put(p, []byte("k"), []byte("v"))
		_ = db.Flush(p)
		_ = db.Delete(p, []byte("k"))
		if _, found, _ := db.Get(p, []byte("k")); found {
			t.Fatal("deleted key still visible")
		}
		// Deleted key also invisible after flush and compaction.
		_ = db.Flush(p)
		_ = db.CompactAll(p)
		if _, found, _ := db.Get(p, []byte("k")); found {
			t.Fatal("deleted key visible after compaction")
		}
		_ = db.Close(p)
	})
}

func TestFlushCreatesL0AndGetStillWorks(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionDisabled))
		for i := 0; i < 500; i++ {
			_ = db.Put(p, key(i), value(i))
		}
		if err := db.Flush(p); err != nil {
			t.Fatal(err)
		}
		if db.L0Files() == 0 {
			t.Fatal("flush produced no L0 tables")
		}
		for i := 0; i < 500; i += 37 {
			v, found, err := db.Get(p, key(i))
			if err != nil || !found || !bytes.Equal(v, value(i)) {
				t.Fatalf("get %d after flush failed", i)
			}
		}
		_ = db.Close(p)
	})
}

func TestAutoCompactionKeepsDataAndBoundsL0(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionAuto))
		n := 5000
		for i := 0; i < n; i++ {
			_ = db.Put(p, key(i), value(i))
		}
		if err := db.WaitBackgroundIdle(p); err != nil {
			t.Fatal(err)
		}
		if db.Metrics().Compactions == 0 {
			t.Fatal("expected compactions to run")
		}
		if db.L0Files() >= db.Options().L0CompactionTrigger {
			t.Fatalf("L0 not compacted: %d files", db.L0Files())
		}
		for i := 0; i < n; i += 113 {
			v, found, err := db.Get(p, key(i))
			if err != nil || !found || !bytes.Equal(v, value(i)) {
				t.Fatalf("get %d after compaction: found=%v err=%v", i, found, err)
			}
		}
		_ = db.Close(p)
	})
}

func TestDeferredCompactAllSinglePass(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionDeferred))
		n := 3000
		for i := 0; i < n; i++ {
			_ = db.Put(p, key(i), value(i))
		}
		preCompactions := db.Metrics().Compactions
		if preCompactions != 0 {
			t.Fatal("deferred mode ran compactions during insert")
		}
		if err := db.CompactAll(p); err != nil {
			t.Fatal(err)
		}
		counts := db.LevelTableCounts()
		for l := 0; l < len(counts)-1; l++ {
			if counts[l] != 0 {
				t.Fatalf("level %d not empty after full compaction: %v", l, counts)
			}
		}
		if counts[len(counts)-1] == 0 {
			t.Fatal("bottom level empty")
		}
		for i := 0; i < n; i += 97 {
			v, found, _ := db.Get(p, key(i))
			if !found || !bytes.Equal(v, value(i)) {
				t.Fatalf("get %d after CompactAll", i)
			}
		}
		_ = db.Close(p)
	})
}

func TestDisabledModeL0Grows(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionDisabled))
		for i := 0; i < 5000; i++ {
			_ = db.Put(p, key(i), value(i))
		}
		_ = db.Flush(p)
		if db.Metrics().Compactions != 0 {
			t.Fatal("disabled mode ran compactions")
		}
		if db.L0Files() < db.Options().L0CompactionTrigger {
			t.Fatalf("expected many L0 files, got %d", db.L0Files())
		}
		_ = db.Close(p)
	})
}

func TestScanRange(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionAuto))
		for i := 0; i < 2000; i++ {
			_ = db.Put(p, key(i), value(i))
		}
		_ = db.Flush(p)
		var got [][]byte
		n, err := db.Scan(p, key(100), key(200), 0, func(k, v []byte) bool {
			got = append(got, k)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != 100 || len(got) != 100 {
			t.Fatalf("scan returned %d", n)
		}
		assertSorted(t, got)
		if !bytes.Equal(got[0], key(100)) || !bytes.Equal(got[99], key(199)) {
			t.Fatalf("range bounds wrong: %q..%q", got[0], got[99])
		}
		_ = db.Close(p)
	})
}

func TestScanSkipsDeletedAndShadowed(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionAuto))
		for i := 0; i < 100; i++ {
			_ = db.Put(p, key(i), value(i))
		}
		_ = db.Flush(p)
		_ = db.Delete(p, key(50))
		_ = db.Put(p, key(60), []byte("updated"))
		seen := map[string]string{}
		_, err := db.Scan(p, nil, nil, 0, func(k, v []byte) bool {
			seen[string(k)] = string(v)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := seen[string(key(50))]; ok {
			t.Fatal("deleted key in scan")
		}
		if seen[string(key(60))] != "updated" {
			t.Fatalf("shadowed value returned: %q", seen[string(key(60))])
		}
		if len(seen) != 99 {
			t.Fatalf("scan saw %d keys", len(seen))
		}
		_ = db.Close(p)
	})
}

func TestScanLimit(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionAuto))
		for i := 0; i < 100; i++ {
			_ = db.Put(p, key(i), value(i))
		}
		n, _ := db.Scan(p, nil, nil, 7, func(k, v []byte) bool { return true })
		if n != 7 {
			t.Fatalf("limit ignored: %d", n)
		}
		// Early stop by callback.
		count := 0
		_, _ = db.Scan(p, nil, nil, 0, func(k, v []byte) bool {
			count++
			return count < 3
		})
		if count != 3 {
			t.Fatalf("callback stop ignored: %d", count)
		}
		_ = db.Close(p)
	})
}

// TestReopenAfterCrash: a DB that stopped without Close (no flush yet, so
// no MANIFEST, only its first log) cannot be opened again — nothing replays
// the log, and Open does not start a second DB over it.
func TestReopenAfterCrash(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		opts := smallOpts(CompactionAuto)
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", opts)
		for i := 0; i < 200; i++ {
			_ = db.Put(p, key(i), value(i))
		}
		_ = db.wal.sync(p)
		db.closed = true // the process "crashes": silence its workers
		db.signalWork()
		if fx.fs.Exists("db0/MANIFEST") {
			t.Fatal("a DB that never flushed has a MANIFEST")
		}
		if _, err := Open(p, fx.h, fx.fs, fx.rng.Fork(2), "db0", opts); !errors.Is(err, vfs.ErrExist) {
			t.Fatalf("Open over a crashed DB: %v", err)
		}
	})
}

// TestReopenAfterCleanClose: Open refuses a name that already has a
// MANIFEST rather than starting empty over its tables, and leaves them as
// they were; another name still opens.
func TestReopenAfterCleanClose(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		opts := smallOpts(CompactionAuto)
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", opts)
		for i := 0; i < 3000; i++ {
			_ = db.Put(p, key(i), value(i))
		}
		_ = db.WaitBackgroundIdle(p)
		if err := db.Close(p); err != nil {
			t.Fatal(err)
		}
		before := fx.fs.TotalBytes()
		if _, err := Open(p, fx.h, fx.fs, fx.rng.Fork(3), "db0", opts); !errors.Is(err, vfs.ErrExist) {
			t.Fatalf("Open over a closed DB: %v", err)
		}
		if fx.fs.TotalBytes() != before {
			t.Fatalf("refused Open changed the filesystem: %d -> %d bytes", before, fx.fs.TotalBytes())
		}
		db2, err := Open(p, fx.h, fx.fs, fx.rng.Fork(3), "db1", opts)
		if err != nil {
			t.Fatal(err)
		}
		_ = db2.Close(p)
	})
}

func TestWriteStallUnderLoad(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		opts := smallOpts(CompactionAuto)
		opts.MemtableBytes = 4 << 10
		opts.L0CompactionTrigger = 2
		opts.L0SlowdownTrigger = 3
		opts.L0StopTrigger = 5
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", opts)
		for i := 0; i < 4000; i++ {
			if err := db.Put(p, key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		_ = db.WaitBackgroundIdle(p)
		m := db.Metrics()
		if m.SlowdownTime == 0 && m.StallTime == 0 {
			t.Fatal("expected write slowdown or stall under L0 pressure")
		}
		// Data is still all there.
		for i := 0; i < 4000; i += 501 {
			if _, found, _ := db.Get(p, key(i)); !found {
				t.Fatalf("key %d lost under stall", i)
			}
		}
		_ = db.Close(p)
	})
}

func TestConcurrentWriters(t *testing.T) {
	fx := newDBFixture()
	var db *DB
	fx.env.Go("open", func(p *sim.Proc) {
		var err error
		db, err = Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionAuto))
		if err != nil {
			t.Fatal(err)
		}
		var writers []*sim.Proc
		for w := 0; w < 8; w++ {
			w := w
			writers = append(writers, p.Env().Go("writer", func(wp *sim.Proc) {
				for i := 0; i < 300; i++ {
					if err := db.Put(wp, key(w*1000+i), value(w*1000+i)); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}))
		}
		p.Join(writers...)
		_ = db.WaitBackgroundIdle(p)
		for w := 0; w < 8; w++ {
			for i := 0; i < 300; i += 53 {
				v, found, _ := db.Get(p, key(w*1000+i))
				if !found || !bytes.Equal(v, value(w*1000+i)) {
					t.Fatalf("writer %d key %d missing", w, i)
				}
			}
		}
		_ = db.Close(p)
	})
	fx.env.Run()
}

func TestClosedDBRejectsOps(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionAuto))
		_ = db.Close(p)
		if err := db.Put(p, []byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
			t.Fatalf("put after close: %v", err)
		}
		if _, _, err := db.Get(p, []byte("k")); !errors.Is(err, ErrClosed) {
			t.Fatalf("get after close: %v", err)
		}
		if _, err := db.Scan(p, nil, nil, 0, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("scan after close: %v", err)
		}
		if err := db.Close(p); !errors.Is(err, ErrClosed) {
			t.Fatalf("double close: %v", err)
		}
	})
}

func TestCompactionReducesReadPath(t *testing.T) {
	// After full compaction a get should touch fewer tables than before.
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionDeferred))
		for i := 0; i < 4000; i++ {
			_ = db.Put(p, key(i), value(i))
		}
		_ = db.Flush(p)
		tablesBefore := db.TotalTables()
		_ = db.CompactAll(p)
		if db.TotalTables() > tablesBefore {
			t.Fatalf("compaction grew table count: %d -> %d", tablesBefore, db.TotalTables())
		}
		counts := db.LevelTableCounts()
		if counts[len(counts)-1] != db.TotalTables() {
			t.Fatalf("tables not all at bottom level: %v", counts)
		}
		// A point get after full compaction consults exactly one table.
		hitsBefore, missesBefore := db.CacheHitStats()
		_, _, _ = db.Get(p, key(1234))
		hits, misses := db.CacheHitStats()
		if (hits-hitsBefore)+(misses-missesBefore) > 2 {
			t.Fatalf("get touched too many blocks: %d", (hits-hitsBefore)+(misses-missesBefore))
		}
		_ = db.Close(p)
	})
}

func TestMetricsAccounting(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionAuto))
		for i := 0; i < 5000; i++ {
			_ = db.Put(p, key(i), value(i))
		}
		_ = db.WaitBackgroundIdle(p)
		m := db.Metrics()
		if m.Flushes == 0 || m.FlushBytes == 0 {
			t.Fatalf("flush metrics empty: %+v", m)
		}
		if m.Compactions == 0 || m.CompactReadBytes == 0 || m.CompactWriteBytes == 0 {
			t.Fatalf("compaction metrics empty: %+v", m)
		}
		_ = db.Close(p)
	})
}

func TestBlockCacheSpeedsRepeatGets(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, _ := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionDeferred))
		for i := 0; i < 2000; i++ {
			_ = db.Put(p, key(i), value(i))
		}
		_ = db.CompactAll(p)
		fx.fs.DropCaches()
		db.DropBlockCache()
		t0 := p.Now()
		_, _, _ = db.Get(p, key(777))
		cold := p.Now() - t0
		t1 := p.Now()
		_, _, _ = db.Get(p, key(777))
		warm := p.Now() - t1
		if warm >= cold {
			t.Fatalf("cached get (%v) not faster than cold get (%v)", warm, cold)
		}
		hits, _ := db.CacheHitStats()
		if hits == 0 {
			t.Fatal("no cache hits recorded")
		}
		_ = db.Close(p)
	})
}

func TestRandomOpsMatchReferenceMap(t *testing.T) {
	f := func(seed int64) bool {
		fx := newDBFixture()
		ok := true
		fx.run(t, func(p *sim.Proc) {
			rng := sim.NewRNG(seed)
			db, err := Open(p, fx.h, fx.fs, rng.Fork(1), "prop", smallOpts(CompactionAuto))
			if err != nil {
				ok = false
				return
			}
			ref := map[string]string{}
			for op := 0; op < 800; op++ {
				k := fmt.Sprintf("k%03d", rng.Intn(200))
				switch rng.Intn(10) {
				case 0: // delete
					_ = db.Delete(p, []byte(k))
					delete(ref, k)
				case 1: // flush sometimes
					_ = db.Flush(p)
				default:
					v := fmt.Sprintf("v%d-%d", op, rng.Intn(1000))
					_ = db.Put(p, []byte(k), []byte(v))
					ref[k] = v
				}
			}
			_ = db.WaitBackgroundIdle(p)
			for k, v := range ref {
				got, found, err := db.Get(p, []byte(k))
				if err != nil || !found || string(got) != v {
					ok = false
					return
				}
			}
			// And scan agrees with the reference size.
			n, err := db.Scan(p, nil, nil, 0, func(k, v []byte) bool {
				if ref[string(k)] != string(v) {
					ok = false
				}
				return true
			})
			if err != nil || n != len(ref) {
				ok = false
			}
			_ = db.Close(p)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}
