package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"kvcsd/internal/sim"
)

// shuffledValues returns n value records of size bytes each that tile
// [0, n·size) in a shuffled order; value i holds the bytes of its own offset.
func shuffledValues(n, size int, seed int64) []valueRec {
	recs := make([]valueRec, n)
	for i, k := range rand.New(rand.NewSource(seed)).Perm(n) {
		v := make([]byte, size)
		for j := range v {
			v[j] = byte(k*size + j)
		}
		recs[i] = valueRec{destOff: uint64(k * size), value: v}
	}
	return recs
}

// encodeValues encodes recs back to back, as a value bucket holds them.
func encodeValues(recs []valueRec) []byte {
	var enc []byte
	for _, r := range recs {
		enc = valueCodec{}.Encode(enc, r)
	}
	return enc
}

// writeValueBucket encodes recs into a bucket spilled to a sealed cluster.
func writeValueBucket(tb testing.TB, p *sim.Proc, fx *sortFixture, recs []valueRec) bucket {
	tb.Helper()
	return spilledBucket(tb, p, fx, encodeValues(recs))
}

// spilledBucket writes enc into a sealed temp cluster.
func spilledBucket(tb testing.TB, p *sim.Proc, fx *sortFixture, enc []byte) bucket {
	tb.Helper()
	c := fx.zm.NewCluster(ZoneTemp)
	if err := c.Append(p, enc); err != nil {
		tb.Fatal(err)
	}
	if err := c.Seal(p); err != nil {
		tb.Fatal(err)
	}
	return bucket{c: c}
}

// bucketForms names the two forms a bucket takes: held in DRAM, and spilled
// to a cluster.
var bucketForms = []string{"held", "spilled"}

// asBucket puts enc into a bucket of the named form.
func asBucket(tb testing.TB, p *sim.Proc, fx *sortFixture, form string, enc []byte) bucket {
	if form == "held" {
		return bucket{buf: enc}
	}
	return spilledBucket(tb, p, fx, enc)
}

// placeForms names the two ways values reach a placer: put straight into a
// span of the keyspace's value bytes as the destination pass gathers them,
// and streamed from a spilled value bucket.
var placeForms = []string{"placed", "spilled"}

// placeAs places recs in the named form into a span from lo — a placed span
// is opened at the tiled bytes' size, as a compaction opens it at its value
// bytes' — charging cpu what that form charges.
func placeAs(tb testing.TB, p *sim.Proc, fx *sortFixture, form string, cpu *passCPU, recs []valueRec, lo uint64, size int) ([]byte, int, error) {
	var v valuePlacer
	if form == "spilled" {
		return placeBucket(p, &v, cpu, writeValueBucket(tb, p, fx, recs), lo)
	}
	v.open(lo, size)
	for _, r := range recs {
		if err := v.put(r.destOff, r.value); err != nil {
			return nil, 0, err
		}
	}
	return v.placed()
}

// placeBucket opens v from lo for the values of spilled value bucket bk,
// places them, charging cpu, and returns what placed does.
func placeBucket(p *sim.Proc, v *valuePlacer, cpu *passCPU, bk bucket, lo uint64) ([]byte, int, error) {
	v.open(lo, bk.valueBytes())
	if err := v.place(p, cpu, bk); err != nil {
		return nil, 0, err
	}
	return v.placed()
}

// TestPlaceValueBucket: values that tile their span — in any order, with
// zero-length values and values of every size, placed or spilled — come out
// as the span in destination order; a gap, an overlap — one as long as a gap
// elsewhere among them — a value before the span and a zero-length value past
// its end each fail with the value sort's gap error.
func TestPlaceValueBucket(t *testing.T) {
	const lo = 1000
	var tiled []valueRec
	var want []byte
	for i, size := range []int{0, 5, 64, 0, 0, 1, 300, 63, 65, 0, 7} {
		v := bytes.Repeat([]byte{byte(i + 1)}, size)
		tiled = append(tiled, valueRec{destOff: uint64(lo + len(want)), value: v})
		want = append(want, v...)
	}
	rand.New(rand.NewSource(5)).Shuffle(len(tiled), func(i, j int) { tiled[i], tiled[j] = tiled[j], tiled[i] })
	with := func(r valueRec) []valueRec { return append(append([]valueRec(nil), tiled...), r) }
	without := func(size int) []valueRec {
		var out []valueRec
		dropped := false
		for _, r := range tiled {
			if !dropped && len(r.value) == size {
				dropped = true
				continue
			}
			out = append(out, r)
		}
		return out
	}
	end := uint64(lo + len(want))
	for _, tc := range []struct {
		name string
		recs []valueRec
		ok   bool
	}{
		{"tiled", tiled, true},
		{"gap", without(64), false},
		{"gap before the last value", append(without(7), valueRec{destOff: end - 6, value: make([]byte, 6)}), false},
		{"overlap", with(valueRec{destOff: lo + 3, value: []byte{9, 9}}), false},
		{"duplicate", with(valueRec{destOff: lo + 5, value: want[5 : 5+64]}), false},
		{"overlap the size of a gap", append(without(64), valueRec{destOff: lo, value: make([]byte, 64)}), false},
		{"before the span", with(valueRec{destOff: lo - 1, value: []byte{9}}), false},
		{"empty past the end", with(valueRec{destOff: end + 1}), false},
	} {
		for _, form := range placeForms {
			fx := newSortFixture(0)
			fx.run(t, func(p *sim.Proc) {
				vals, n, err := placeAs(t, p, fx, form, passOn(fx.soc.Account(""), 1), tc.recs, lo, len(want))
				switch {
				case tc.ok && (err != nil || n != len(tc.recs) || !bytes.Equal(vals, want)):
					t.Errorf("%s, %s: %d records, err %v, placed %x, want %x", tc.name, form, n, err, vals, want)
				case !tc.ok && (err == nil || !strings.Contains(err.Error(), "value sort produced gap")):
					t.Errorf("%s, %s: err %v, want a gap error", tc.name, form, err)
				}
			})
		}
	}
}

// TestPlaceValueBucketCharge: placing a spilled bucket of n records costs the
// SoC n compares, one per record, whatever their order or sizes; putting the
// values straight into a span costs nothing — the gather that hands them out
// is charged already.
func TestPlaceValueBucketCharge(t *testing.T) {
	for _, n := range []int{1, 300, 5000} {
		for _, form := range placeForms {
			fx := newSortFixture(0)
			cfg := fx.soc.Config()
			fx.run(t, func(p *sim.Proc) {
				// Writing the spilled bucket's cluster charges the SoC nothing.
				busy0 := fx.soc.CPU().BusyTime()
				if _, got, err := placeAs(t, p, fx, form, passOn(fx.soc.Account(""), 1), shuffledValues(n, 1+n%29, int64(n)), 0, n*(1+n%29)); err != nil || got != n {
					t.Fatalf("n=%d, %s: %d records, err %v", n, form, got, err)
				}
				want := time.Duration(float64(time.Duration(n)*cfg.CompareCost) / cfg.Speed)
				if form == "placed" {
					want = 0
				}
				if d := fx.soc.CPU().BusyTime() - busy0; d != want {
					t.Errorf("n=%d, %s: SoC busy +%v, want %v", n, form, d, want)
				}
			})
		}
	}
}

// TestPlaceValueBucketAllocs: once a placer has grown to the largest bucket,
// placing a bucket — of that size or smaller — allocates nothing beyond what
// streaming the bucket's records through a reused scanner window does.
func TestPlaceValueBucketAllocs(t *testing.T) {
	fx := newSortFixture(0)
	fx.run(t, func(p *sim.Proc) {
		big := writeValueBucket(t, p, fx, shuffledValues(4096, 32, 1))
		small := writeValueBucket(t, p, fx, shuffledValues(1000, 40, 2))
		var v valuePlacer
		cpu := passOn(fx.soc.Account(""), 1)
		if _, _, err := placeBucket(p, &v, cpu, big, 0); err != nil { // warm-up: sizes the placer
			t.Fatal(err)
		}
		var sc scanner[valueRec]
		scan := func(c *Cluster) {
			sc = scanner[valueRec]{c: c, codec: valueCodec{}, buf: sc.buf[:0]}
			for {
				if _, ok, err := sc.next(p); err != nil || !ok {
					return
				}
			}
		}
		scan(big.c)
		read := testing.AllocsPerRun(10, func() {
			scan(big.c)
			scan(small.c)
		})
		placed := testing.AllocsPerRun(10, func() {
			placeBucket(p, &v, cpu, big, 0)
			placeBucket(p, &v, cpu, small, 0)
		})
		if placed > read {
			t.Fatalf("placing two buckets allocated %v times, reading them %v", placed, read)
		}
	})
}

// encodeDests encodes ents back to back, as a destination bucket holds them.
func encodeDests(ents []destEntry) []byte {
	var enc []byte
	for _, de := range ents {
		enc = destCodec{}.Encode(enc, de)
	}
	return enc
}

// writeDestBucket puts ents into a destination bucket of the named form, and
// vlog bytes into a sealed VLOG cluster.
func writeDestBucket(tb testing.TB, p *sim.Proc, fx *sortFixture, form string, ents []destEntry, vlog []byte) (dest bucket, log *Cluster) {
	tb.Helper()
	dest = asBucket(tb, p, fx, form, encodeDests(ents))
	log = fx.zm.NewCluster(ZoneVLOG)
	if err := log.Append(p, vlog); err != nil {
		tb.Fatal(err)
	}
	if err := log.Seal(p); err != nil {
		tb.Fatal(err)
	}
	return dest, log
}

// testVlog returns n VLOG bytes, each a function of its offset.
func testVlog(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// TestGatherDestBucket: the gather hands out every entry of a bucket in the
// order the bucket holds them, each with its own VLOG bytes — zero-length
// values and a value running past the bucket's range included — and rejects an
// entry that starts outside [lo, lo+width) or ends past the VLOG.
func TestGatherDestBucket(t *testing.T) {
	const lo, width, vlogLen = 5000, 4000, 12000
	vlog := testVlog(vlogLen)
	var ents []destEntry
	for i, size := range []int{0, 32, 300, 1, 0, 64, 2500, 7, 33} {
		off := lo + (i*1237)%width
		ents = append(ents, destEntry{vlogOff: uint64(off), destOff: uint64(i) * 1000, vlen: uint32(size)})
	}
	ents = append(ents, destEntry{vlogOff: lo + width - 1, destOff: 99, vlen: 700}) // runs past the range
	with := func(de destEntry) []destEntry { return append(append([]destEntry(nil), ents...), de) }
	for _, tc := range []struct {
		name string
		ents []destEntry
		ok   bool
	}{
		{"in range", ents, true},
		{"before the range", with(destEntry{vlogOff: lo - 1, vlen: 1}), false},
		{"at the range's end", with(destEntry{vlogOff: lo + width}), false},
		{"past the vlog", with(destEntry{vlogOff: lo + width - 1, vlen: vlogLen}), false},
	} {
		for _, form := range bucketForms {
			fx := newSortFixture(0)
			fx.run(t, func(p *sim.Proc) {
				dest, log := writeDestBucket(t, p, fx, form, tc.ents, vlog)
				var g valueGatherer
				got, err := g.gather(p, passOn(fx.soc.Account(""), 1), dest, log, lo, width)
				if !tc.ok {
					if err == nil || !strings.Contains(err.Error(), "outside the span") {
						t.Errorf("%s, %s: err %v, want an outside-the-span error", tc.name, form, err)
					}
					return
				}
				if err != nil || len(got) != len(tc.ents) {
					t.Fatalf("%s, %s: %d entries, err %v", tc.name, form, len(got), err)
				}
				for i, de := range got {
					if de != tc.ents[i] || !bytes.Equal(g.value(de), vlog[de.vlogOff:de.vlogOff+uint64(de.vlen)]) {
						t.Fatalf("%s, %s: entry %d is %+v with %d bytes, want %+v", tc.name, form, i, de, len(g.value(de)), tc.ents[i])
					}
				}
			})
		}
	}
}

// TestGatherDestBucketCharge: gathering a bucket of n records costs the SoC n
// compares, one per record, whatever their order and whether the bucket is
// held or spilled — no sort pass.
func TestGatherDestBucketCharge(t *testing.T) {
	for _, n := range []int{1, 300, 5000} {
		for _, form := range bucketForms {
			fx := newSortFixture(0)
			cfg := fx.soc.Config()
			fx.run(t, func(p *sim.Proc) {
				dest, log := writeDestBucket(t, p, fx, form, shuffledDests(n, 32, int64(n)), testVlog(n*32))
				var g valueGatherer
				busy0 := fx.soc.CPU().BusyTime()
				if got, err := g.gather(p, passOn(fx.soc.Account(""), 1), dest, log, 0, uint64(n*32)); err != nil || len(got) != n {
					t.Fatalf("n=%d, %s: %d records, err %v", n, form, len(got), err)
				}
				want := time.Duration(float64(time.Duration(n)*cfg.CompareCost) / cfg.Speed)
				if d := fx.soc.CPU().BusyTime() - busy0; d != want {
					t.Errorf("n=%d, %s: SoC busy +%v, want %v", n, form, d, want)
				}
			})
		}
	}
}

// shuffledDests returns n destination entries of size-byte values that tile
// the VLOG [0, n·size) in a shuffled order, each bound for its own slot.
func shuffledDests(n, size int, seed int64) []destEntry {
	ents := make([]destEntry, n)
	for i, k := range rand.New(rand.NewSource(seed)).Perm(n) {
		ents[i] = destEntry{vlogOff: uint64(k * size), destOff: uint64(i * size), vlen: uint32(size)}
	}
	return ents
}
