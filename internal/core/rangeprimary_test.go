package core

import (
	"bytes"
	"fmt"
	"testing"

	"kvcsd/internal/nvme"
	"kvcsd/internal/sim"
)

// rangePairs is enough 32-byte values for a SORTED_VALUES of 1.22 MiB: four
// full 256 KiB scan windows and a short fifth. 8192 values fill a window
// exactly, so full windows start and end on granule boundaries.
const rangePairs = 40000

// withRangeKeyspace loads rangePairs pairs into a compacted keyspace "ks",
// reads every PIDX block into the index cache, and runs body with the index
// of each block's first pair (len = blocks+1, the last entry rangePairs).
func withRangeKeyspace(t *testing.T, body func(p *sim.Proc, fx *engineFixture, ks *Keyspace, starts []int)) {
	t.Helper()
	cfg := smallEngineConfig()
	cfg.SortBudgetBytes = 1 << 20
	fx := newEngineFixture(cfg)
	fx.run(t, func(p *sim.Proc) {
		ingestN(t, p, fx, "ks", rangePairs, func(int) float32 { return 0 })
		compactAndWait(t, p, fx, "ks")
		ks, _ := fx.eng.Keyspace("ks")
		if ks.sorted.Len() != rangePairs*32 {
			t.Fatalf("SORTED_VALUES holds %d bytes, want %d", ks.sorted.Len(), rangePairs*32)
		}
		var starts []int
		n := 0
		for b := int64(0); b < ks.pidx.Len()/int64(cfg.BlockBytes); b++ {
			blk, err := fx.eng.readIndexBlockCached(p, ks.pidx, b)
			if err != nil {
				t.Fatal(err)
			}
			starts = append(starts, n)
			n += blk.len()
		}
		if n != rangePairs {
			t.Fatalf("PIDX holds %d entries, want %d", n, rangePairs)
		}
		body(p, fx, ks, append(starts, n))
	})
}

// scanIndexes runs RangePrimary, checks every value against tvalue, and
// returns the pair numbers in emission order plus the returned count. fn
// returns false on the stopAt-th pair (0 = never).
func scanIndexes(t *testing.T, p *sim.Proc, eng *Engine, lo, hi []byte, limit, stopAt int) ([]int, int) {
	t.Helper()
	var got []int
	n, err := eng.RangePrimary(p, "ks", lo, hi, limit, func(pr nvme.KVPair) bool {
		var i int
		if _, err := fmt.Sscanf(string(pr.Key), "key-%d", &i); err != nil {
			t.Fatalf("key %q: %v", pr.Key, err)
		}
		if !bytes.Equal(pr.Value, tvalue(i, 0)) {
			t.Fatalf("pair %d: value %q", i, pr.Value)
		}
		got = append(got, i)
		return len(got) != stopAt
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, n
}

// TestRangePrimaryReadsOnlyItsSpan: with the index cached, a 128-pair scan
// reads no more than the granules its values cover, and a full scan reads
// every value granule exactly once, in reads of at most scanChunk bytes.
func TestRangePrimaryReadsOnlyItsSpan(t *testing.T) {
	withRangeKeyspace(t, func(p *sim.Proc, fx *engineFixture, ks *Keyspace, _ []int) {
		g := int64(fx.eng.cfg.BlockBytes)
		before := fx.st.MediaRead.Value()
		if got, _ := scanIndexes(t, p, fx.eng, tkey(1000), nil, 128, 0); len(got) != 128 {
			t.Fatalf("scan returned %d pairs", len(got))
		}
		span := int64(128 * 32)
		if read, bound := fx.st.MediaRead.Value()-before, (span+g-1)/g*g+g; read > bound {
			t.Fatalf("128-pair scan of a %d-byte span read %d bytes, want at most %d", span, read, bound)
		}

		// The callback sees the media counter move only when a window was
		// read: the index blocks are all cached.
		var reads, maxRead int64
		last := fx.st.MediaRead.Value()
		start := last
		n, err := fx.eng.RangePrimary(p, "ks", nil, nil, 0, func(nvme.KVPair) bool {
			if now := fx.st.MediaRead.Value(); now != last {
				reads++
				maxRead = max(maxRead, now-last)
				last = now
			}
			return true
		})
		if err != nil || n != rangePairs {
			t.Fatalf("full scan: %d pairs, err %v", n, err)
		}
		granules := (ks.sorted.Len() + g - 1) / g
		if read := fx.st.MediaRead.Value() - start; read != granules*g {
			t.Fatalf("full scan read %d bytes, want each of %d granules once (%d bytes)", read, granules, granules*g)
		}
		if want := (ks.sorted.Len() + scanChunk - 1) / scanChunk; reads != want || maxRead > scanChunk {
			t.Fatalf("full scan: %d reads of up to %d bytes, want %d of at most %d", reads, maxRead, want, scanChunk)
		}
	})
}

// TestRangePrimaryBoundaries checks scans whose windows, limits and bounds
// fall on the edges of PIDX blocks against the sorted reference, then that
// the plans the engine kept hold no entries.
func TestRangePrimaryBoundaries(t *testing.T) {
	withRangeKeyspace(t, func(p *sim.Proc, fx *engineFixture, ks *Keyspace, starts []int) {
		blockStart := make(map[int]bool, len(starts))
		for _, s := range starts {
			blockStart[s] = true
		}
		check := func(name string, lo, hi []byte, limit, stopAt int) {
			t.Helper()
			var want []int
			for i := 0; i < rangePairs; i++ {
				k := tkey(i)
				if (lo == nil || bytes.Compare(k, lo) >= 0) && (hi == nil || bytes.Compare(k, hi) < 0) {
					want = append(want, i)
				}
			}
			if limit > 0 && len(want) > limit {
				want = want[:limit]
			}
			if stopAt > 0 && len(want) > stopAt {
				want = want[:stopAt]
			}
			got, n := scanIndexes(t, p, fx.eng, lo, hi, limit, stopAt)
			if n != len(want) || len(got) != len(want) {
				t.Fatalf("%s: returned %d, emitted %d pairs, want %d", name, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: pair %d is %d, want %d", name, i, got[i], want[i])
				}
			}
		}

		// A full scan breaks its windows every 8192 pairs; the first break
		// must fall inside a block for this case to test anything.
		const perWindow = scanChunk / 32
		if blockStart[perWindow] {
			t.Fatalf("pair %d opens a PIDX block: pick another layout", perWindow)
		}
		check("full scan", nil, nil, 0, 0)
		keptPlansClear(t, fx.eng) // its last window is shorter than the first
		check("window break inside a block", tkey(100), tkey(100+perWindow+50), 0, 0)

		b := 3
		check("limit on a block's last entry", tkey(starts[b]), nil, starts[b+1]-starts[b], 0)
		check("hi inside the next block", tkey(starts[b]+3), tkey(starts[b+1]+10), 0, 0)
		check("hi on the next block's first key", tkey(starts[b]+3), tkey(starts[b+1]), 0, 0)
		check("fn stops mid-window", nil, nil, 0, 100)
		check("fn stops in the second window", tkey(5), nil, 0, perWindow+7)
		check("lo above the max key", []byte("zzz"), nil, 0, 0)
		check("lo between keys", append(tkey(starts[b]), 0), tkey(starts[b]+20), 0, 0)
		keptPlansClear(t, fx.eng)
	})
}

// keptPlansClear requires every planning buffer the engine keeps between
// scans to be cleared, so that none pins an index block.
func keptPlansClear(t *testing.T, e *Engine) {
	t.Helper()
	for _, plan := range e.scanPlans {
		for i, ent := range plan[:cap(plan)] {
			if ent.key != nil {
				t.Fatalf("a kept plan still holds entry %d (%q)", i, ent.key)
			}
		}
	}
}

// TestRangePrimaryHeatsItsSpan: a one-pair scan heats only the granule its
// value lies in.
func TestRangePrimaryHeatsItsSpan(t *testing.T) {
	withRangeKeyspace(t, func(p *sim.Proc, fx *engineFixture, ks *Keyspace, _ []int) {
		h := ks.Heat()
		before := make([]uint32, h.Len())
		for g := range before {
			before[g] = h.Heat(g)
		}
		const k = 5000
		ent, ok, err := fx.eng.lookupPidx(p, ks, tkey(k), 0)
		if err != nil || !ok {
			t.Fatalf("lookup: %v %v", ok, err)
		}
		if got, _ := scanIndexes(t, p, fx.eng, tkey(k), nil, 1, 0); len(got) != 1 || got[0] != k {
			t.Fatalf("one-pair scan returned %v", got)
		}
		g0 := int(ent.vlogOff) / fx.eng.cfg.BlockBytes
		g1 := (int(ent.vlogOff) + int(ent.vlen) - 1) / fx.eng.cfg.BlockBytes
		for g := range before {
			want := before[g]
			if g >= g0 && g <= g1 {
				want++
			}
			if got := h.Heat(g); got != want {
				t.Fatalf("granule %d heat %d, want %d (value in granules %d..%d)", g, got, want, g0, g1)
			}
		}
	})
}

// TestRangePrimaryAllocs: once its plan and window buffers are warm, a scan
// allocates only the pairs it returns, beside what reading its value span
// allocates on its own.
func TestRangePrimaryAllocs(t *testing.T) {
	withRangeKeyspace(t, func(p *sim.Proc, fx *engineFixture, ks *Keyspace, _ []int) {
		const first, n = 1000, 128
		lo := tkey(first)
		scan := func() {
			if got, err := fx.eng.RangePrimary(p, "ks", lo, nil, n, func(nvme.KVPair) bool { return true }); err != nil || got != n {
				t.Fatalf("scan: %d pairs, err %v", got, err)
			}
		}
		span := make([]byte, n*32)
		read := testing.AllocsPerRun(20, func() {
			if err := ks.sorted.ReadAt(p, span, first*32); err != nil {
				t.Fatal(err)
			}
		})
		scan()
		if got := testing.AllocsPerRun(20, scan); got > n+read {
			t.Fatalf("a %d-pair scan allocated %v times, want at most %d (its pairs) + %v (reading its span)", n, got, n, read)
		}
	})
}

// TestRangePrimaryEmptyValues: values of zero bytes never stretch a window's
// span, so scanWindowEntries alone ends each window — a full scan returns
// every pair without planning the whole keyspace at once.
func TestRangePrimaryEmptyValues(t *testing.T) {
	fx := newEngineFixture(smallEngineConfig())
	fx.run(t, func(p *sim.Proc) {
		const n = 2*scanWindowEntries + 5
		if err := fx.eng.CreateKeyspace(p, "ks"); err != nil {
			t.Fatal(err)
		}
		pairs := make([]nvme.KVPair, n)
		for i := range pairs {
			pairs[i] = nvme.KVPair{Key: tkey(i), Value: []byte{}}
		}
		if err := fx.eng.BulkOps(p, "ks", pairs); err != nil {
			t.Fatal(err)
		}
		compactAndWait(t, p, fx, "ks")
		i := 0
		got, err := fx.eng.RangePrimary(p, "ks", nil, nil, 0, func(pr nvme.KVPair) bool {
			if !bytes.Equal(pr.Key, tkey(i)) || len(pr.Value) != 0 {
				t.Fatalf("pair %d: %q = %q", i, pr.Key, pr.Value)
			}
			i++
			return true
		})
		if err != nil || got != n {
			t.Fatalf("full scan: %d pairs, err %v", got, err)
		}
		for _, plan := range fx.eng.scanPlans {
			if cap(plan) >= n {
				t.Fatalf("a kept plan holds %d entries: the scan planned the whole keyspace", cap(plan))
			}
		}
	})
}
