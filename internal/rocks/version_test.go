package rocks

import (
	"reflect"
	"strings"
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

func levelMetas(l *levels) [][]tableMeta {
	out := make([][]tableMeta, len(l.files))
	for i, fs := range l.files {
		for _, t := range fs {
			out[i] = append(out[i], t.meta)
		}
	}
	return out
}

func TestManifestSaveLoadRoundTrip(t *testing.T) {
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		opts := smallOpts(CompactionAuto)
		want := manifestDB(opts)
		want.fs, want.name = fx.fs, "db0"
		want.manifestLock = sim.NewResource(p.Env(), "manifest", 1)
		if err := want.saveManifest(p); err != nil {
			t.Fatal(err)
		}
		got := &DB{fs: fx.fs, name: "db0", opts: opts}
		if ok, err := got.loadManifest(p); !ok || err != nil {
			t.Fatalf("load: %v, %v", ok, err)
		}
		if got.nextFileNum != want.nextFileNum || got.seq != want.seq {
			t.Fatalf("loaded nextFileNum %d seq %d, want %d %d", got.nextFileNum, got.seq, want.nextFileNum, want.seq)
		}
		if g, w := levelMetas(got.levels), levelMetas(want.levels); !reflect.DeepEqual(g, w) {
			t.Fatalf("loaded levels\n%+v\nwant\n%+v", g, w)
		}
	})
}

// TestManifestDecodeRefusesDamage: every truncation of a manifest, and
// garbage, is a "rocks: manifest decode" error, never a panic, and Open
// reports it.
func TestManifestDecodeRefusesDamage(t *testing.T) {
	opts := smallOpts(CompactionAuto)
	data := manifestDB(opts).appendManifest(nil)
	for n := 0; n < len(data); n++ {
		if err := (&DB{opts: opts}).decodeManifest(data[:n]); err == nil || !strings.Contains(err.Error(), "rocks: manifest decode") {
			t.Fatalf("manifest cut to %d of %d bytes: %v", n, len(data), err)
		}
	}
	fx := newDBFixture()
	fx.run(t, func(p *sim.Proc) {
		f, err := fx.fs.Create(p, "db0/MANIFEST")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p, []byte("\xff\xfe garbage, not a manifest")); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p, fx.h, fx.fs, fx.rng, "db0", opts); err == nil || !strings.Contains(err.Error(), "rocks: manifest decode") {
			t.Fatalf("Open over a garbage manifest: %v", err)
		}
	})
}

func TestManifestRefusesOtherVersion(t *testing.T) {
	opts := smallOpts(CompactionAuto)
	data := manifestDB(opts).appendManifest(nil)
	data[4] = manifestVersion + 1
	if err := (&DB{opts: opts}).decodeManifest(data); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("decode of a version-2 manifest: %v", err)
	}
}
