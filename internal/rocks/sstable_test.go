package rocks

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"

	"kvcsd/internal/host"
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
	"kvcsd/internal/stats"
	"kvcsd/internal/vfs"
)

type tableFixture struct {
	env *sim.Env
	h   *host.Host
	fs  *vfs.FS
}

func newTableFixture() *tableFixture {
	env := sim.NewEnv()
	st := stats.NewIOStats()
	scfg := ssd.DefaultConfig()
	scfg.ConvBlocks = 1 << 18
	dev := ssd.New(env, scfg, st)
	h := host.New(env, host.DefaultHostConfig())
	return &tableFixture{env: env, h: h, fs: vfs.New(dev, h, vfs.DefaultConfig(), st)}
}

func buildTestTable(t *testing.T, p *sim.Proc, fx *tableFixture, name string, n int) (*tableReader, tableMeta) {
	t.Helper()
	opts := DefaultOptions()
	f, err := fx.fs.Create(p, name)
	if err != nil {
		t.Fatal(err)
	}
	b := newTableBuilder(f, fx.h, &opts)
	for i := 0; i < n; i++ {
		if err := b.add(p, key(i), value(i), kindValue, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	size, err := b.finish(p)
	if err != nil {
		t.Fatal(err)
	}
	meta := tableMeta{fileNum: 1, size: size, entries: int64(n),
		smallest: append([]byte(nil), key(0)...), largest: append([]byte(nil), key(n-1)...)}
	rf, err := fx.fs.Open(p, name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := openTable(p, rf, fx.h, newBlockCache(1<<20), meta)
	if err != nil {
		t.Fatal(err)
	}
	return r, meta
}

func TestTableBuildAndGet(t *testing.T) {
	fx := newTableFixture()
	fx.env.Go("test", func(p *sim.Proc) {
		r, _ := buildTestTable(t, p, fx, "t.sst", 1000)
		for i := 0; i < 1000; i += 17 {
			v, found, del, err := r.get(p, key(i), ^uint64(0))
			if err != nil || !found || del || !bytes.Equal(v, value(i)) {
				t.Fatalf("get %d: found=%v del=%v err=%v", i, found, del, err)
			}
		}
		// Absent keys (within and outside range).
		if _, found, _, _ := r.get(p, []byte("key-00000500x"), ^uint64(0)); found {
			t.Fatal("found absent key")
		}
		if _, found, _, _ := r.get(p, []byte("zzz"), ^uint64(0)); found {
			t.Fatal("found key past range")
		}
		if _, found, _, _ := r.get(p, []byte("aaa"), ^uint64(0)); found {
			t.Fatal("found key before range")
		}
	})
	fx.env.Run()
}

func TestTableSnapshotVisibility(t *testing.T) {
	fx := newTableFixture()
	fx.env.Go("test", func(p *sim.Proc) {
		opts := DefaultOptions()
		f, _ := fx.fs.Create(p, "v.sst")
		b := newTableBuilder(f, fx.h, &opts)
		// Two versions of one key, newest (higher seq) first in internal order.
		_ = b.add(p, []byte("k"), []byte("new"), kindValue, 10)
		_ = b.add(p, []byte("k"), []byte("old"), kindValue, 3)
		size, _ := b.finish(p)
		meta := tableMeta{fileNum: 2, size: size, entries: 2, smallest: []byte("k"), largest: []byte("k")}
		rf, _ := fx.fs.Open(p, "v.sst")
		r, err := openTable(p, rf, fx.h, newBlockCache(1<<20), meta)
		if err != nil {
			t.Fatal(err)
		}
		v, found, _, _ := r.get(p, []byte("k"), ^uint64(0))
		if !found || string(v) != "new" {
			t.Fatalf("latest snapshot got %q", v)
		}
		v, found, _, _ = r.get(p, []byte("k"), 5)
		if !found || string(v) != "old" {
			t.Fatalf("snapshot 5 got %q found=%v", v, found)
		}
		if _, found, _, _ = r.get(p, []byte("k"), 2); found {
			t.Fatal("snapshot 2 should see nothing")
		}
	})
	fx.env.Run()
}

func TestTableTombstone(t *testing.T) {
	fx := newTableFixture()
	fx.env.Go("test", func(p *sim.Proc) {
		opts := DefaultOptions()
		f, _ := fx.fs.Create(p, "d.sst")
		b := newTableBuilder(f, fx.h, &opts)
		_ = b.add(p, []byte("gone"), nil, kindDelete, 5)
		size, _ := b.finish(p)
		meta := tableMeta{fileNum: 3, size: size, entries: 1, smallest: []byte("gone"), largest: []byte("gone")}
		rf, _ := fx.fs.Open(p, "d.sst")
		r, _ := openTable(p, rf, fx.h, newBlockCache(1<<20), meta)
		_, found, del, _ := r.get(p, []byte("gone"), ^uint64(0))
		if !found || !del {
			t.Fatalf("tombstone not surfaced: found=%v del=%v", found, del)
		}
	})
	fx.env.Run()
}

func TestTableIteratorFullWalk(t *testing.T) {
	fx := newTableFixture()
	fx.env.Go("test", func(p *sim.Proc) {
		n := 2500
		r, _ := buildTestTable(t, p, fx, "walk.sst", n)
		it := r.iterator(p)
		it.SeekToFirst()
		count := 0
		var prev []byte
		for it.Valid() {
			if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
				t.Fatal("iterator out of order")
			}
			prev = append(prev[:0], it.Key()...)
			count++
			it.Next()
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		if count != n {
			t.Fatalf("walked %d of %d", count, n)
		}
	})
	fx.env.Run()
}

func TestTableIteratorSeek(t *testing.T) {
	fx := newTableFixture()
	fx.env.Go("test", func(p *sim.Proc) {
		r, _ := buildTestTable(t, p, fx, "seek.sst", 1000)
		it := r.iterator(p)
		it.Seek(key(500))
		if !it.Valid() || !bytes.Equal(it.Key(), key(500)) {
			t.Fatalf("seek landed on %q", it.Key())
		}
		// Seek between keys lands on the next one.
		it.Seek([]byte("key-00000500a"))
		if !it.Valid() || !bytes.Equal(it.Key(), key(501)) {
			t.Fatalf("between-seek landed on %q", it.Key())
		}
		// Seek past the end.
		it.Seek([]byte("zzz"))
		if it.Valid() {
			t.Fatal("seek past end should be invalid")
		}
	})
	fx.env.Run()
}

func TestTableCorruptFooter(t *testing.T) {
	fx := newTableFixture()
	fx.env.Go("test", func(p *sim.Proc) {
		f, _ := fx.fs.Create(p, "bad.sst")
		_ = f.Append(p, make([]byte, 100)) // garbage, no magic
		_ = f.Sync(p)
		rf, _ := fx.fs.Open(p, "bad.sst")
		if _, err := openTable(p, rf, fx.h, nil, tableMeta{}); err == nil {
			t.Fatal("corrupt table opened successfully")
		}
		// Too short for a footer at all.
		g, _ := fx.fs.Create(p, "tiny.sst")
		_ = g.Append(p, []byte("x"))
		rg, _ := fx.fs.Open(p, "tiny.sst")
		if _, err := openTable(p, rg, fx.h, nil, tableMeta{}); err == nil {
			t.Fatal("tiny table opened successfully")
		}
	})
	fx.env.Run()
}

func TestDecodeEntriesCorrupt(t *testing.T) {
	if _, err := decodeEntries([]byte{0xFF}); err == nil {
		t.Fatal("truncated varint accepted")
	}
	if _, err := decodeEntries([]byte{10, 10, 0}); err == nil {
		t.Fatal("overflowing lengths accepted")
	}
}

func TestBloomSkipAvoidsBlockReads(t *testing.T) {
	fx := newTableFixture()
	var missReads, presentReads int64
	fx.env.Go("test", func(p *sim.Proc) {
		r, _ := buildTestTable(t, p, fx, "bloom.sst", 5000)
		fx.fs.DropCaches()
		st := fx.fs.Stats()
		before := st.MediaRead.Value()
		// Probe many absent keys: blooms should skip nearly all block reads.
		for i := 0; i < 100; i++ {
			_, found, _, _ := r.get(p, []byte(fmt.Sprintf("nope-%04d", i)), ^uint64(0))
			if found {
				t.Fatal("absent key found")
			}
		}
		missReads = st.MediaRead.Value() - before
		before = st.MediaRead.Value()
		for i := 0; i < 100; i++ {
			_, found, _, _ := r.get(p, key(i*37), ^uint64(0))
			if !found {
				t.Fatal("present key missing")
			}
		}
		presentReads = st.MediaRead.Value() - before
	})
	fx.env.Run()
	if missReads >= presentReads/4 {
		t.Fatalf("bloom filters ineffective: miss reads %d vs present reads %d", missReads, presentReads)
	}
}

// --- WAL -----------------------------------------------------------------

// TestWALRecordBytes pins what the WAL writer appends per record. No reader
// checks the log, and its bytes and syncs are what the baseline is charged,
// so the layout is held here: an 8-byte crc32/length header, then kind, seq,
// key and value, 25 bytes of framing per record in all.
func TestWALRecordBytes(t *testing.T) {
	fx := newTableFixture()
	fx.env.Go("test", func(p *sim.Proc) {
		f, _ := fx.fs.Create(p, "test.log")
		w := newWALWriter(f)
		if err := w.append(p, kindValue, 1, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := w.append(p, kindDelete, 2, []byte("k"), nil); err != nil {
			t.Fatal(err)
		}
		want, _ := hex.DecodeString(
			"9016ad3c" + "13000000" + "00" + "0100000000000000" + "01000000" + "6b" + "01000000" + "76" +
				"74bbeca5" + "12000000" + "01" + "0200000000000000" + "01000000" + "6b" + "00000000")
		got := make([]byte, f.Size())
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("log bytes\n%x\nwant\n%x", got, want)
		}
		size := f.Size()
		for i := 0; i < 100; i++ {
			if err := w.append(p, kindValue, uint64(i+3), key(i), value(i)); err != nil {
				t.Fatal(err)
			}
			size += int64(25 + len(key(i)) + len(value(i)))
			if f.Size() != size {
				t.Fatalf("record %d: log is %d bytes, want %d", i, f.Size(), size)
			}
		}
		if err := w.sync(p); err != nil {
			t.Fatal(err)
		}
	})
	fx.env.Run()
}

// TestWALEmptyFile: Open starts the DB's first log with no bytes — no header
// — and a Put appends exactly one record to it.
func TestWALEmptyFile(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db, err := Open(p, fx.h, fx.fs, fx.rng, "db0", smallOpts(CompactionAuto))
		if err != nil {
			t.Fatal(err)
		}
		f, err := fx.fs.Open(p, "db0/wal-000001.log")
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() != 0 {
			t.Fatalf("new log is %d bytes", f.Size())
		}
		if err := db.Put(p, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if f.Size() != 27 {
			t.Fatalf("log after one Put is %d bytes, want 27", f.Size())
		}
		_ = db.Close(p)
	})
}
