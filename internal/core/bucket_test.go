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

// writeValueBucket encodes recs into a sealed bucket cluster.
func writeValueBucket(tb testing.TB, p *sim.Proc, fx *sortFixture, recs []valueRec) *Cluster {
	tb.Helper()
	c := fx.zm.NewCluster(ZoneTemp)
	var enc []byte
	for _, r := range recs {
		enc = valueCodec{}.Encode(enc, r)
	}
	if err := c.Append(p, enc); err != nil {
		tb.Fatal(err)
	}
	if err := c.Seal(p); err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestPlaceValueBucket: a bucket whose values tile their span — in any order,
// with zero-length values and values of every size — comes out as the span in
// destination order; a gap, an overlap, a value before the span and a
// zero-length value past its end each fail with the value pass's gap error.
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
		{"before the span", with(valueRec{destOff: lo - 1, value: []byte{9}}), false},
		{"empty past the end", with(valueRec{destOff: end + 1}), false},
	} {
		fx := newSortFixture(0)
		fx.run(t, func(p *sim.Proc) {
			var v valuePlacer
			vals, n, err := v.place(p, fx.soc.Account(""), writeValueBucket(t, p, fx, tc.recs), lo)
			switch {
			case tc.ok && (err != nil || n != len(tc.recs) || !bytes.Equal(vals, want)):
				t.Errorf("%s: %d records, err %v, placed %x, want %x", tc.name, n, err, vals, want)
			case !tc.ok && (err == nil || !strings.Contains(err.Error(), "value sort produced gap")):
				t.Errorf("%s: err %v, want a gap error", tc.name, err)
			}
		})
	}
}

// TestPlaceValueBucketCharge: placing a bucket of n records costs the SoC n
// compares, one per record, whatever their order or sizes.
func TestPlaceValueBucketCharge(t *testing.T) {
	for _, n := range []int{1, 300, 5000} {
		fx := newSortFixture(0)
		cfg := fx.soc.Config()
		fx.run(t, func(p *sim.Proc) {
			c := writeValueBucket(t, p, fx, shuffledValues(n, 1+n%29, int64(n)))
			var v valuePlacer
			busy0 := fx.soc.CPU().BusyTime()
			if _, got, err := v.place(p, fx.soc.Account(""), c, 0); err != nil || got != n {
				t.Fatalf("n=%d: %d records, err %v", n, got, err)
			}
			want := time.Duration(float64(time.Duration(n)*cfg.CompareCost) / cfg.Speed)
			if d := fx.soc.CPU().BusyTime() - busy0; d != want {
				t.Errorf("n=%d: SoC busy +%v, want %v", n, d, want)
			}
		})
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
		cpu := fx.soc.Account("")
		if _, _, err := v.place(p, cpu, big, 0); err != nil { // warm-up: sizes the placer
			t.Fatal(err)
		}
		var sc scanner[valueRec]
		scan := func(c *Cluster) {
			sc = scanner[valueRec]{c: c, codec: valueCodec{}, chunk: scanChunk, buf: sc.buf[:0]}
			for {
				if _, ok, err := sc.next(p); err != nil || !ok {
					return
				}
			}
		}
		scan(big)
		read := testing.AllocsPerRun(10, func() {
			scan(big)
			scan(small)
		})
		placed := testing.AllocsPerRun(10, func() {
			v.place(p, cpu, big, 0)
			v.place(p, cpu, small, 0)
		})
		if placed > read {
			t.Fatalf("placing two buckets allocated %v times, reading them %v", placed, read)
		}
	})
}
