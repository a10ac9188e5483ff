package rocks

import (
	"bytes"
	"testing"

	"kvcsd/internal/sim"
)

// manifestDB returns a DB whose version state has tables on L0 and L2 and
// nothing on L1 or L3.
func manifestDB(opts Options) *DB {
	db := &DB{opts: opts, nextFileNum: 42, seq: 1 << 40, levels: newLevels(opts.Levels)}
	table := func(n uint64, lo, hi string) *tableHandle {
		return &tableHandle{meta: tableMeta{fileNum: n, size: int64(n) << 12, entries: int64(n) * 10,
			smallest: []byte(lo), largest: []byte(hi)}}
	}
	db.levels.addL0(table(7, "a", "m"))
	db.levels.addL0(table(9, "c", "z"))
	db.levels.addSorted(2, table(3, "n", "p"))
	db.levels.addSorted(2, table(4, "a", "f"))
	return db
}

// TestManifestSize pins the MANIFEST a save leaves behind. Nothing reads it
// back; its size is what saveManifest's host copy and writes are charged
// for, so the encoding is held here: magic, version, nextFileNum 42 (1 byte),
// seq 2^40 (6), 7 level counts, and four tables of 9, 9, 8 and 9 bytes.
func TestManifestSize(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		db := manifestDB(smallOpts(CompactionAuto))
		db.fs, db.name = fx.fs, "db0"
		db.manifestLock = sim.NewResource(p.Env(), "manifest", 1)
		if err := db.saveManifest(p); err != nil {
			t.Fatal(err)
		}
		f, err := fx.fs.Open(p, "db0/MANIFEST")
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() != 55 {
			t.Fatalf("MANIFEST is %d bytes, want 55", f.Size())
		}
		got := make([]byte, f.Size())
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Fatal(err)
		}
		if want := db.appendManifest(nil); !bytes.Equal(got, want) {
			t.Fatalf("MANIFEST bytes\n%x\nwant\n%x", got, want)
		}
	})
}
