package vfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"kvcsd/internal/host"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
)

type fixture struct {
	env *sim.Env
	fs  *FS
	dev *ssd.Device
	st  *stats.IOStats
}

func newFixture(cfg Config) *fixture {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	scfg := ssd.DefaultConfig()
	scfg.NumZones = 4
	scfg.ConvBlocks = 8192
	dev := ssd.New(env, scfg, st)
	h := host.New(env, host.DefaultHostConfig())
	return &fixture{env: env, fs: New(dev, h, cfg, st), dev: dev, st: st}
}

func (fx *fixture) run(t *testing.T, fn func(p *sim.Proc)) sim.Time {
	t.Helper()
	fx.env.Go("test", fn)
	return fx.env.Run()
}

func TestCreateWriteReadBack(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		f, err := fx.fs.Create(p, "a.sst")
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte("0123456789"), 2000) // 20 KB, crosses blocks
		if err := f.Append(p, data); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(p); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(data))
		if err := f.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatal("data mismatch")
		}
		// Partial mid-file read.
		small := make([]byte, 100)
		if err := f.ReadAt(p, small, 12345); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(small, data[12345:12445]) {
			t.Fatal("partial read mismatch")
		}
	})
}

func TestReadFromDirtyTail(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		f, _ := fx.fs.Create(p, "x")
		if err := f.Append(p, []byte("unsynced data")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		if err := f.ReadAt(p, buf, 2); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "synced d" {
			t.Fatalf("dirty read %q", buf)
		}
	})
	if fx.st.MediaRead.Value() != 0 {
		t.Fatal("dirty-tail read touched media")
	}
}

func TestReadStraddlingSyncedAndDirty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WritebackBytes = 4096
	fx := newFixture(cfg)
	fx.run(t, func(p *sim.Proc) {
		f, _ := fx.fs.Create(p, "x")
		first := bytes.Repeat([]byte{'A'}, 4096)
		if err := f.Append(p, first); err != nil { // hits writeback threshold
			t.Fatal(err)
		}
		if err := f.Append(p, []byte("tail")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 10)
		if err := f.ReadAt(p, buf, 4090); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "AAAAAAtail" {
			t.Fatalf("straddle read %q", buf)
		}
	})
}

func TestOpenNonexistent(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		if _, err := fx.fs.Open(p, "ghost"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestCreateDuplicate(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		if _, err := fx.fs.Create(p, "dup"); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.fs.Create(p, "dup"); !errors.Is(err, ErrExist) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestRemoveFreesBlocks(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		f, _ := fx.fs.Create(p, "victim")
		_ = f.Append(p, make([]byte, 64<<10))
		_ = f.Sync(p)
		free0 := fx.dev.FreeConvBlocks()
		if err := fx.fs.Remove(p, "victim"); err != nil {
			t.Fatal(err)
		}
		if fx.dev.FreeConvBlocks() <= free0 {
			t.Fatal("remove did not trim blocks")
		}
		if fx.fs.Exists("victim") {
			t.Fatal("file still exists")
		}
		if _, err := fx.fs.Size("victim"); !errors.Is(err, ErrNotExist) {
			t.Fatal("size of removed file should fail")
		}
	})
}

func TestRenameReplacesTarget(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		a, _ := fx.fs.Create(p, "MANIFEST-tmp")
		_ = a.Append(p, []byte("new manifest"))
		_ = a.Sync(p)
		b, _ := fx.fs.Create(p, "MANIFEST")
		_ = b.Append(p, []byte("old"))
		_ = b.Sync(p)
		if err := fx.fs.Rename(p, "MANIFEST-tmp", "MANIFEST"); err != nil {
			t.Fatal(err)
		}
		if fx.fs.Exists("MANIFEST-tmp") {
			t.Fatal("source still exists")
		}
		f, err := fx.fs.Open(p, "MANIFEST")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 12)
		if err := f.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "new manifest" {
			t.Fatalf("content %q", buf)
		}
	})
}

func TestRenameMissingSource(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		if err := fx.fs.Rename(p, "no", "where"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestReadBeyondEOF(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		f, _ := fx.fs.Create(p, "short")
		_ = f.Append(p, []byte("12345"))
		buf := make([]byte, 10)
		if err := f.ReadAt(p, buf, 0); !errors.Is(err, ErrBounds) {
			t.Fatalf("err = %v", err)
		}
		if err := f.ReadAt(p, buf[:2], -1); !errors.Is(err, ErrBounds) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestClosedHandle(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		f, _ := fx.fs.Create(p, "c")
		_ = f.Close()
		if err := f.Append(p, []byte("x")); !errors.Is(err, ErrClosed) {
			t.Fatal(err)
		}
		if err := f.ReadAt(p, []byte{0}, 0); !errors.Is(err, ErrClosed) {
			t.Fatal(err)
		}
		if err := f.Sync(p); !errors.Is(err, ErrClosed) {
			t.Fatal(err)
		}
	})
}

func TestPageCacheHitAvoidsMedia(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		f, _ := fx.fs.Create(p, "cached")
		_ = f.Append(p, make([]byte, 8192))
		_ = f.Sync(p)
		fx.fs.DropCaches()
		buf := make([]byte, 100)
		before := fx.st.MediaRead.Value()
		_ = f.ReadAt(p, buf, 0) // miss
		mid := fx.st.MediaRead.Value()
		_ = f.ReadAt(p, buf, 50) // same block: hit
		after := fx.st.MediaRead.Value()
		if mid-before != 4096 {
			t.Fatalf("miss read %d bytes from media", mid-before)
		}
		if after != mid {
			t.Fatal("cache hit touched media")
		}
	})
	if fx.st.CacheHits.Value() == 0 || fx.st.CacheMisses.Value() == 0 {
		t.Fatalf("hit/miss accounting: %s", fx.st.String())
	}
}

func TestDropCaches(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		f, _ := fx.fs.Create(p, "x")
		_ = f.Append(p, make([]byte, 4096))
		_ = f.Sync(p)
		if fx.fs.CacheBytes() == 0 {
			t.Fatal("writeback should populate cache")
		}
		fx.fs.DropCaches()
		if fx.fs.CacheBytes() != 0 {
			t.Fatal("cache not dropped")
		}
		buf := make([]byte, 10)
		before := fx.st.MediaRead.Value()
		_ = f.ReadAt(p, buf, 0)
		if fx.st.MediaRead.Value() == before {
			t.Fatal("read after drop should hit media")
		}
	})
}

func TestCacheEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageCacheBytes = 8192 // two blocks
	fx := newFixture(cfg)
	fx.run(t, func(p *sim.Proc) {
		f, _ := fx.fs.Create(p, "big")
		_ = f.Append(p, make([]byte, 64<<10))
		_ = f.Sync(p)
		if fx.fs.CacheBytes() > 8192 {
			t.Fatalf("cache grew to %d", fx.fs.CacheBytes())
		}
	})
}

func TestReadInflationAccounting(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		f, _ := fx.fs.Create(p, "x")
		_ = f.Append(p, make([]byte, 8192))
		_ = f.Sync(p)
		fx.fs.DropCaches()
		buf := make([]byte, 48) // want 48 bytes...
		_ = f.ReadAt(p, buf, 0)
	})
	// ...but a whole 4 KiB block moves from media.
	if fx.st.MediaRead.Value() != 4096 {
		t.Fatalf("media read %d, want 4096", fx.st.MediaRead.Value())
	}
}

func TestJournalWritesOnSync(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JournalBlocksPerTx = 2
	fx := newFixture(cfg)
	fx.run(t, func(p *sim.Proc) {
		f, _ := fx.fs.Create(p, "j")
		_ = f.Append(p, []byte("tiny"))
		before := fx.st.MediaWrite.Value()
		_ = f.Sync(p)
		// 1 data block + 2 journal blocks.
		if got := fx.st.MediaWrite.Value() - before; got != 3*4096 {
			t.Fatalf("sync wrote %d bytes", got)
		}
	})
}

func TestTotalBytes(t *testing.T) {
	fx := newFixture(DefaultConfig())
	fx.run(t, func(p *sim.Proc) {
		a, _ := fx.fs.Create(p, "a")
		_ = a.Append(p, make([]byte, 100))
		b, _ := fx.fs.Create(p, "b")
		_ = b.Append(p, make([]byte, 200))
		if fx.fs.TotalBytes() != 300 {
			t.Fatalf("total %d", fx.fs.TotalBytes())
		}
	})
}

func TestAppendReadRoundTripProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		var total int
		for _, c := range chunks {
			total += len(c)
		}
		if total == 0 || total > 1<<20 {
			return true
		}
		fx := newFixture(DefaultConfig())
		ok := true
		fx.run(t, func(p *sim.Proc) {
			f, err := fx.fs.Create(p, "prop")
			if err != nil {
				ok = false
				return
			}
			var want []byte
			for _, c := range chunks {
				if err := f.Append(p, c); err != nil {
					ok = false
					return
				}
				want = append(want, c...)
			}
			if err := f.Sync(p); err != nil {
				ok = false
				return
			}
			got := make([]byte, len(want))
			if err := f.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, want) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSyscallCostCharged(t *testing.T) {
	fx := newFixture(DefaultConfig())
	end := fx.run(t, func(p *sim.Proc) {
		_, _ = fx.fs.Create(p, "t")
	})
	if end == 0 {
		t.Fatal("create should consume syscall time")
	}
}
