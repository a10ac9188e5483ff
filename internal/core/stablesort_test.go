package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"kvcsd/internal/host"
	"kvcsd/internal/keyenc"
	"kvcsd/internal/sim"
)

// checkStableSort requires stableSort to produce exactly the permutation
// sort.SliceStable does. Records carry a field the comparator ignores, so a
// pair of equal records swapped is a visible difference.
func checkStableSort[T any](t *testing.T, recs []T, cmp func(a, b T) int) {
	t.Helper()
	want := append([]T(nil), recs...)
	sort.SliceStable(want, func(i, j int) bool { return cmp(want[i], want[j]) < 0 })
	got := append([]T(nil), recs...)
	stableSort(got, make([]T, len(got)), cmp)
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%T: %d records, first difference at %d: got %+v want %+v", got, len(got), i, got[i], want[i])
			}
		}
	}
}

// checkRadixSort requires radixSort to produce exactly the permutation
// stableSort does when ordering by the same key, and to report ⌈L/11⌉ passes
// for an L-bit key span.
func checkRadixSort[T any](t *testing.T, recs []T, key func(T) uint64) {
	t.Helper()
	want := append([]T(nil), recs...)
	stableSort(want, make([]T, len(want)), func(a, b T) int { return cmp.Compare(key(a), key(b)) })
	got := append([]T(nil), recs...)
	passes := radixSort(got, make([]T, len(got)), key)
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%T: %d records, first difference at %d: got %+v want %+v", got, len(got), i, got[i], want[i])
			}
		}
	}
	wantPasses := 0
	if len(want) > 1 {
		span := bits.Len64(key(want[len(want)-1]) - key(want[0]))
		wantPasses = (span + 10) / 11
	}
	if passes != wantPasses {
		t.Fatalf("%T: %d records, %d radix passes, want %d", got, len(got), passes, wantPasses)
	}
}

// checkMsdSort requires msdSort to produce exactly the permutation
// stableSort(cmp) does and to report the charge refMsdCompares computes.
func checkMsdSort[T any](t *testing.T, recs []T, key func(T) []byte, cmp func(a, b T) int) {
	t.Helper()
	want := append([]T(nil), recs...)
	stableSort(want, make([]T, len(want)), cmp)
	got := append([]T(nil), recs...)
	compares := msdCompares(got, key, cmp)
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%T: %d records, first difference at %d: got %+v want %+v", got, len(got), i, got[i], want[i])
			}
		}
	}
	keys := make([][]byte, len(want))
	for i, r := range want {
		keys[i] = key(r)
	}
	if wantCompares := refMsdCompares(keys, 0); compares != wantCompares {
		t.Fatalf("%T: %d records charged %d compares, want %d", got, len(got), compares, wantCompares)
	}
	// Split over more cores, the shares sum to the same charge
	// (TestSortSharesMatchSequential checks the order).
	for cores := 2; cores <= 4; cores++ {
		shares := make([]int64, cores)
		msdSort(append([]T(nil), recs...), make([]T, len(recs)), 0, key, cmp, shares)
		if sum := sumShares(shares); sum != compares {
			t.Fatalf("%T: %d records on %d cores charged %v, sum %d, want %d", got, len(got), cores, shares, sum, compares)
		}
	}
}

func sumShares(shares []int64) (sum int64) {
	for _, v := range shares {
		sum += v
	}
	return sum
}

// msdCompares runs msdSort over data on one core and returns its whole
// charge.
func msdCompares[T any](data []T, key func(T) []byte, cmp func(a, b T) int) int64 {
	var total [1]int64
	msdSort(data, make([]T, len(data)), 0, key, cmp, total[:])
	return total[0]
}

// refMsdCompares is msdSort's charge rule worked out over keys already in
// order, where the records sharing a prefix are one contiguous range: n per
// pass over a group of more than sortBlock, m·⌊log2 m⌋ for a group handed to
// stableSort. The batch takes a prefix pass and a distribution; a deeper
// group takes a count pass, distributing off it when its keys differ at
// depth, and otherwise falls back to the batch's two passes.
func refMsdCompares(keys [][]byte, depth int) int64 {
	n := len(keys)
	floorLog := func(m int) int64 { return int64(m) * int64(bits.Len(uint(m))-1) }
	if n <= sortBlock {
		return floorLog(n)
	}
	var c int64
	if depth > 0 {
		c = int64(n) // the count pass
		switch b := msdBucket(keys[0], depth); {
		case b != msdBucket(keys[n-1], depth):
			return c + refBucketCompares(keys, depth)
		case b == 0:
			return c + floorLog(n) // every key equal
		}
	}
	first, last := keys[0][depth:], keys[n-1][depth:]
	d := depth + commonPrefix(first, last)
	if len(keys[0]) == d && len(keys[n-1]) == d {
		return c + int64(n) + floorLog(n) // every key equal
	}
	return c + 2*int64(n) + refBucketCompares(keys, d)
}

// refBucketCompares is refMsdCompares summed over the buckets of keys at
// byte d.
func refBucketCompares(keys [][]byte, d int) int64 {
	var c int64
	for i := 0; i < len(keys); {
		b := msdBucket(keys[i], d)
		j := i + 1
		for j < len(keys) && msdBucket(keys[j], d) == b {
			j++
		}
		if b == 0 {
			c += int64(j-i) * int64(bits.Len(uint(j-i))-1)
		} else {
			c += refMsdCompares(keys[i:j], d+1)
		}
		i = j
	}
	return c
}

// msdKeyPrefix is the long prefix checkAllRecordTypes shares between every
// key in one of its byte-string inputs.
var msdKeyPrefix = bytes.Repeat([]byte("shared-prefix/"), 4)

// radixSpreads map a small test key onto the uint64 key space: one digit,
// all eight digits (up to 2^64−1 itself, span included), and the top of the
// range.
var radixSpreads = []func(k byte) uint64{
	func(k byte) uint64 { return uint64(k) },
	func(k byte) uint64 { return uint64(k) * 0x0101_0101_0101_0101 },
	func(k byte) uint64 { return math.MaxUint64 - uint64(k) },
}

// checkAllRecordTypes builds one input per sorted record type from the same
// key stream — keys[i] picks record i's ordering key out of a small set, so
// most records have equal neighbours — and checks each against the reference.
func checkAllRecordTypes(t *testing.T, keys []byte) {
	t.Helper()
	var (
		klog  []klogEntry
		sidx  []sidxEntry
		pairs []pairRec
	)
	for _, spread := range radixSpreads {
		var dests []destEntry
		for i, k := range keys {
			// destOff tags the record; the key ignores it.
			dests = append(dests, destEntry{vlogOff: spread(k), destOff: uint64(i)})
		}
		checkRadixSort(t, dests, vlogOrder)
	}
	for i, k := range keys {
		key := []byte{'k', k >> 4, k & 15}
		tag := uint32(i)
		// Equal under compareKlog: same key, vlogOff and tombstone-ness; vlen
		// is the tag (tombstones have only one vlen, so they tag nothing).
		ke := klogEntry{key: key, vlogOff: uint64(k & 3), vlen: tag}
		if k&8 != 0 {
			ke.vlen = tombstoneVlen
		}
		klog = append(klog, ke)
		sidx = append(sidx, sidxEntry{skey: key[:2], pkey: key[2:], svOff: uint64(tag)})
		pairs = append(pairs, pairRec{key: key, seq: uint64(k&3)<<1 | uint64(i&1), value: []byte{byte(i), byte(i >> 8)}})
	}
	checkStableSort(t, klog, compareKlog)
	checkStableSort(t, sidx, compareSidx)
	checkStableSort(t, pairs, comparePair)

	// msdSort against stableSort on keys of 0–3 bytes after an optional long
	// prefix, so empty keys and keys that are prefixes of others occur.
	for _, prefix := range [][]byte{nil, msdKeyPrefix} {
		klog, sidx, pairs = klog[:0], sidx[:0], pairs[:0]
		for i, k := range keys {
			key := append(append([]byte(nil), prefix...), k>>6, k>>4&3, k>>2&3)[:len(prefix)+int(k&3)]
			tag := uint32(i)
			// A tombstone sharing a vlogOff with a put of its key, or with
			// another tombstone, ties on everything but its kind.
			ke := klogEntry{key: key, vlogOff: uint64(i & 1), vlen: tag}
			if i%3 == 0 {
				ke.vlen = tombstoneVlen
			}
			klog = append(klog, ke)
			sidx = append(sidx, sidxEntry{skey: key, pkey: []byte{byte(i % 3)}, svOff: uint64(tag)})
			pairs = append(pairs, pairRec{key: key, seq: uint64(i&3)<<1 | uint64(i&1), value: []byte{byte(i), byte(i >> 8)}})
		}
		checkMsdSort(t, klog, klogKey, compareKlog)
		checkMsdSort(t, sidx, sidxKey, compareSidx)
		checkMsdSort(t, pairs, pairKey, comparePair)
	}

	// Secondary keys of every width radix run formation takes, arriving in
	// primary-key order as both index builds feed them: key k's bits spread
	// over every byte, so each digit pass moves records and most keys repeat.
	for w := 1; w <= 4; w++ {
		sidx = sidx[:0]
		for i, k := range keys {
			skey := make([]byte, w)
			for j := range skey {
				skey[j] = k >> (2 * (w - 1 - j))
			}
			sidx = append(sidx, sidxEntry{skey: skey, pkey: binary.BigEndian.AppendUint32(nil, uint32(i)), svOff: uint64(k)})
		}
		checkSidxRadix(t, sidx, w)
	}
}

// checkSidxRadix requires radix run formation on secondary keys w bytes wide
// to produce exactly the order msdSort does.
func checkSidxRadix(t *testing.T, recs []sidxEntry, w int) {
	t.Helper()
	want := append([]sidxEntry(nil), recs...)
	msdCompares(want, sidxKey, compareSidx)
	got := sortBuf[sidxEntry]{recs: append([]sidxEntry(nil), recs...)}
	got.radix(sidxRadixKey(w))
	for i := range want {
		if !reflect.DeepEqual(got.recs[i], want[i]) {
			t.Fatalf("width %d, %d records, first difference at %d: radix %+v, msd %+v", w, len(recs), i, got.recs[i], want[i])
		}
	}
}

func TestStableSortMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sizes := []int{0, 1, 2, sortBlock - 1, sortBlock, sortBlock + 1, 2*sortBlock - 1, 2 * sortBlock, 2*sortBlock + 1,
		3 * sortBlock, 100, 1000, 4097}
	for _, n := range sizes {
		for _, distinct := range []int{1, 3, 16, 256} {
			keys := make([]byte, n)
			for i := range keys {
				keys[i] = byte(rng.Intn(distinct))
			}
			checkAllRecordTypes(t, keys)
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] }) // presorted: the merge skip path
			checkAllRecordTypes(t, keys)
			for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
				keys[i], keys[j] = keys[j], keys[i]
			}
			checkAllRecordTypes(t, keys)
		}
	}
}

func FuzzStableSort(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{7, 7, 3, 7, 1, 3}, 11))
	f.Add(bytes.Repeat([]byte{255, 0, 128, 8, 9, 10, 8}, 40))
	f.Add(bytes.Repeat([]byte{3}, sortBlock-1))
	f.Add(bytes.Repeat([]byte{3, 7, 0}, 6)[:sortBlock+1])
	f.Fuzz(func(t *testing.T, keys []byte) {
		if len(keys) > 1<<12 {
			keys = keys[:1<<12]
		}
		checkAllRecordTypes(t, keys)
	})
}

// TestSortSharesMatchSequential: a batch sorted on 1–4 cores comes out in the
// order the sequential sort gives, its shares sum to the sequential charge,
// and the largest is at least an even split's — for random keys, keys nearly
// all in one MSD bucket, all-equal keys (one stableSort, which stays on one
// core) and narrow SIDX keys sorted by radix.
func TestSortSharesMatchSequential(t *testing.T) {
	const n = 6000
	rng := rand.New(rand.NewSource(45))
	random := make([]klogEntry, n)
	dominant := make([]klogEntry, n)
	equal := make([]klogEntry, n)
	for i := range random {
		random[i] = klogEntry{key: binary.BigEndian.AppendUint64(nil, rng.Uint64()), vlen: uint32(i)}
		k := binary.BigEndian.AppendUint32([]byte{'a'}, rng.Uint32())
		if i%10 == 0 {
			k[0] = byte(rng.Intn(256))
		}
		dominant[i] = klogEntry{key: k, vlen: uint32(i)}
		equal[i] = klogEntry{key: []byte("same"), vlogOff: uint64(i % 3), vlen: uint32(i)}
	}
	radix := benchSidxEntries(n)
	for cores := 1; cores <= 4; cores++ {
		checkShares(t, "random", cores, random, klogKey, compareKlog, nil)
		checkShares(t, "dominant", cores, dominant, klogKey, compareKlog, nil)
		shares := checkShares(t, "equal", cores, equal, klogKey, compareKlog, nil)
		// The prefix pass is split; the stableSort after it is not.
		if top, want := slices.Max(shares), int64((n+cores-1)/cores)+sortCompares(n); top != want {
			t.Errorf("equal keys on %d cores: largest share %d, want a pass slice and the whole stableSort, %d", cores, top, want)
		}
		checkShares(t, "radix", cores, radix, sidxKey, compareSidx, sidxRadixKey(4))
	}
}

// checkShares sorts recs as one run-formation batch with cores shares and
// with one, requires the same order, the same charge in all and a largest
// share of at least an even split's, and returns the shares.
func checkShares[T any](t *testing.T, kind string, cores int, recs []T, key func(T) []byte, cmp func(a, b T) int, radix func(T) uint64) []int64 {
	t.Helper()
	sortOn := func(cores int) ([]T, []int64) {
		s := &Sorter[T]{key: key, cmp: cmp, radix: radix, shares: make([]int64, cores)}
		s.batch.recs = append([]T(nil), recs...)
		return s.batch.recs, s.sortBatch()
	}
	want, seq := sortOn(1)
	got, shares := sortOn(cores)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s keys on %d cores sort out of the sequential order", kind, cores)
	}
	total := seq[0]
	if sum := sumShares(shares); sum != total {
		t.Fatalf("%s keys on %d cores: shares %v sum to %d, want the sequential %d", kind, cores, shares, sum, total)
	}
	if top, even := slices.Max(shares), (total+int64(cores)-1)/int64(cores); top < even {
		t.Fatalf("%s keys on %d cores: largest share %d below an even split's %d", kind, cores, top, even)
	}
	return shares
}

// TestMsdSortNoAllocs: once a sort job's buffers have grown to its batch
// size, run formation's sort allocates nothing; its bucket counts live on the
// stack.
func TestMsdSortNoAllocs(t *testing.T) {
	master := benchKlogEntries(4096)
	var b sortBuf[klogEntry]
	b.recs = append(b.recs, master...)
	shares := make([]int64, 3)
	b.msd(klogKey, compareKlog, shares) // warm-up: sizes the scratch
	if n := testing.AllocsPerRun(10, func() {
		copy(b.recs, master)
		b.msd(klogKey, compareKlog, shares)
	}); n != 0 {
		t.Fatalf("sortBuf.msd allocated %v times per run after warm-up", n)
	}
}

// TestMakeRunsCharge: forming one run of 10 240 vpic-style 16-byte keys
// (eight zero bytes, then a big-endian hashed id) costs the SoC exactly the
// comparisons refMsdCompares counts, priced at CompareCost/Speed each: the
// batch's prefix pass and distribution, one count-and-distribute pass per
// bucket on the next byte, then the small groups' stableSort — ≈ 3.15 per
// record, far fewer than the n·⌊log2 n⌋ a comparison sort is charged. One run
// of 10 240 float32 energies in primary-key order — an index build's batch —
// is radix sorted: an energy span under 33 bits takes three digit passes of
// at most 11 bits, 3.00 per record.
func TestMakeRunsCharge(t *testing.T) {
	const n = 10240
	rng := rand.New(rand.NewSource(23))
	recs := make([]klogEntry, n)
	keys := make([][]byte, n)
	for i := range recs {
		k := keyenc.MakeFixedKey16(rng.Uint64())
		recs[i] = klogEntry{key: k.Bytes(), vlen: 32, vlogOff: uint64(i) * 32}
		keys[i] = recs[i].key
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	compares := refMsdCompares(keys, 0)
	if perRec := float64(compares) / n; perRec < 3.1 || perRec > 3.2 {
		t.Fatalf("%.2f compares per record, want ≈ 3.15", perRec)
	}
	fx := newSortFixture(64 << 20)
	checkRunCharge(t, fx, NewSorter[klogEntry](fx.zm, fx.soc, fx.cfg, klogCodec{}, klogKey, compareKlog), recs, compares)

	sidx := make([]sidxEntry, n)
	for i := range sidx {
		energy := keyenc.PutFloat32(float32(rng.ExpFloat64() * 10))
		sidx[i] = sidxEntry{skey: energy, pkey: keyenc.MakeFixedKey16(uint64(i)).Bytes(), svOff: uint64(i) * 32, vlen: 32}
	}
	fx = newSortFixture(64 << 20)
	s := NewSorter[sidxEntry](fx.zm, fx.soc, fx.cfg, sidxCodec{}, sidxKey, compareSidx)
	s.radix = sidxRadixKey(4)
	checkRunCharge(t, fx, s, sidx, 3*n)
}

// TestMsdSortOneBucketFallback: a group below the batch whose keys all share
// the byte it is counted on pays for that count pass, then the prefix pass,
// then the distribution on the first byte that differs — and still sorts
// exactly as stableSort does.
func TestMsdSortOneBucketFallback(t *testing.T) {
	// Two top-level buckets ('a', 'b'); inside 'a' every key shares the next
	// three bytes, so the count pass at depth 1 finds one bucket. 'b' holds
	// sortBlock records and goes straight to stableSort.
	const na, nb = 64, sortBlock
	var recs []klogEntry
	for i := 0; i < na+nb; i++ {
		key := []byte{'b', byte(i)}
		if i < na {
			key = []byte{'a', 'x', 'y', 'z', byte(i * 37 % 8), byte(i % 3)}
		}
		recs = append(recs, klogEntry{key: key, vlogOff: uint64(i % 2), vlen: uint32(i)})
	}
	rand.New(rand.NewSource(5)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	want := append([]klogEntry(nil), recs...)
	stableSort(want, make([]klogEntry, len(want)), compareKlog)
	got := append([]klogEntry(nil), recs...)
	compares := msdCompares(got, klogKey, compareKlog)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("msdSort order differs from stableSort")
	}
	floorLog := func(m int64) int64 { return m * int64(bits.Len64(uint64(m))-1) }
	// Batch: prefix pass + distribution. Group 'a': count + prefix +
	// distribution on byte 4 into eight groups of eight. Group 'b': stableSort.
	wantCompares := 2*int64(na+nb) + 3*na + 8*floorLog(na/8) + floorLog(nb)
	if compares != wantCompares {
		t.Fatalf("charged %d compares, want %d", compares, wantCompares)
	}
	keys := make([][]byte, len(want))
	for i, r := range want {
		keys[i] = r.key
	}
	if ref := refMsdCompares(keys, 0); ref != wantCompares {
		t.Fatalf("refMsdCompares says %d, want %d", ref, wantCompares)
	}
}

// checkRunCharge forms one run of recs with s and requires the SoC to be
// charged exactly compares key comparisons.
func checkRunCharge[T any](t *testing.T, fx *sortFixture, s *Sorter[T], recs []T, compares int64) {
	t.Helper()
	cfg := fx.soc.Config()
	fx.run(t, func(p *sim.Proc) {
		busy0 := fx.soc.CPU().BusyTime()
		runs, err := s.makeRuns(p, &sliceSource[T]{recs: recs})
		if err != nil || len(runs) != 1 {
			t.Fatalf("%d runs, err %v", len(runs), err)
		}
		want := time.Duration(float64(time.Duration(compares)*cfg.CompareCost) / cfg.Speed)
		if d := fx.soc.CPU().BusyTime() - busy0; d != want {
			t.Errorf("%T: SoC busy +%v, want %v (%.2f compares per record)", recs, d, want, float64(compares)/float64(len(recs)))
		}
	})
}

// vlogOrder is a uint64 radix key of a fixed-size record type, for the
// radixSort tests.
func vlogOrder(e destEntry) uint64 { return e.vlogOff }

// TestRadixSortNoAllocs: the radix sort allocates nothing once its scratch
// is sized.
func TestRadixSortNoAllocs(t *testing.T) {
	perm := rand.New(rand.NewSource(16)).Perm(4096)
	master := make([]destEntry, len(perm))
	for i, k := range perm {
		master[i] = destEntry{vlogOff: uint64(k) * 32, destOff: uint64(i) * 32, vlen: 32}
	}
	var b sortBuf[destEntry]
	b.recs = append(b.recs, master...)
	b.radix(vlogOrder) // warm-up: sizes the scratch
	if n := testing.AllocsPerRun(10, func() {
		copy(b.recs, master)
		b.radix(vlogOrder)
	}); n != 0 {
		t.Fatalf("sortBuf.radix allocated %v times per run after warm-up", n)
	}
}

// sliceSource streams a slice of records (a run already in DRAM, decoded).
type sliceSource[T any] struct {
	recs []T
	pos  int
}

func (s *sliceSource[T]) next(*sim.Proc) (rec T, ok bool, err error) {
	if s.pos >= len(s.recs) {
		return rec, false, nil
	}
	s.pos++
	return s.recs[s.pos-1], true, nil
}

// TestMergeSortedTieBreak: records that compare equal leave the merge in
// source-index order, whatever order the heap met them in, and on 1–4 cores
// alike; the per-core shares cost the sequential charge to the nanosecond and
// take no longer than it.
func TestMergeSortedTieBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, k := range []int{1, 2, 3, 5, 16, 33} {
		runs := make([][]klogEntry, k)
		var all []klogEntry
		for i := range runs {
			n := rng.Intn(200)
			if i == k/2 {
				n = 0 // an empty source in the middle
			}
			for j := 0; j < n; j++ {
				// vlen names the source and position; compareKlog ignores it.
				runs[i] = append(runs[i], klogEntry{key: []byte{byte(rng.Intn(6))}, vlogOff: uint64(rng.Intn(2)), vlen: uint32(i<<16 | j)})
			}
			r := runs[i]
			sort.SliceStable(r, func(a, b int) bool { return compareKlog(r[a], r[b]) < 0 })
			all = append(all, r...)
		}
		// Reference: a stable sort of the runs concatenated in source order.
		sort.SliceStable(all, func(a, b int) bool { return compareKlog(all[a], all[b]) < 0 })

		var seqBusy, seqTook sim.Duration
		for cores := 1; cores <= 4; cores++ {
			env := sim.NewEnv()
			cpu := host.New(env, host.DefaultSoCConfig())
			var got []klogEntry
			var took sim.Time
			env.Go("merge", func(p *sim.Proc) {
				err := mergeSorted(p, k, func(i int) recordSource[klogEntry] { return &sliceSource[klogEntry]{recs: runs[i]} },
					compareKlog, cpu.Account(""), make([]int64, cores), func(_ *sim.Proc, rec klogEntry) error {
						got = append(got, rec)
						return nil
					})
				if err != nil {
					t.Error(err)
				}
				took = p.Now()
			})
			env.Run()
			if !reflect.DeepEqual(got, all) {
				t.Fatalf("k=%d on %d cores: merge order differs from the stable reference", k, cores)
			}
			busy := cpu.CPU().BusyTime()
			if cores == 1 {
				seqBusy, seqTook = busy, sim.Duration(took)
			}
			if busy != seqBusy || sim.Duration(took) > seqTook {
				t.Errorf("k=%d on %d cores: charged %v in %v, sequentially %v in %v", k, cores, busy, sim.Duration(took), seqBusy, seqTook)
			}
		}
	}
}

// refMergeEncodedKlogRuns is the linear-scan merge MergeEncodedKlogRuns
// carried before it moved onto mergeSorted, kept as the reference for its
// output bytes and its CPU charge — since the merge became a loser tree,
// ⌈log2 k⌉ compares per record for k non-empty runs.
func refMergeEncodedKlogRuns(p *sim.Proc, h *host.Host, runs [][]byte) ([]byte, error) {
	codec := klogCodec{}
	type cursor struct {
		rec  klogEntry
		data []byte
	}
	cursors := make([]*cursor, 0, len(runs))
	var total int
	for _, r := range runs {
		total += len(r)
		c := &cursor{data: r}
		rec, n, err := codec.Decode(c.data, true)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			continue // empty run
		}
		c.rec, c.data = rec, c.data[n:]
		cursors = append(cursors, c)
	}
	logK := int64(bits.Len(uint(max(len(cursors)-1, 0))))
	out := make([]byte, 0, total)
	var pending int64
	for len(cursors) > 0 {
		best := 0
		for i := 1; i < len(cursors); i++ {
			if compareKlog(cursors[i].rec, cursors[best].rec) < 0 {
				best = i
			}
		}
		c := cursors[best]
		out = codec.Encode(out, c.rec)
		pending++
		if pending >= 4096 {
			h.Compares(p, pending*logK)
			pending = 0
		}
		rec, n, err := codec.Decode(c.data, true)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			cursors = append(cursors[:best], cursors[best+1:]...)
			continue
		}
		c.rec, c.data = rec, c.data[n:]
	}
	if pending > 0 {
		h.Compares(p, pending*logK)
	}
	h.Copy(p, int64(total))
	return out, nil
}

// TestMergeEncodedKlogRunsUnchanged: same bytes out, same virtual time
// charged, with duplicate keys across runs, tombstones and empty runs.
func TestMergeEncodedKlogRunsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, k := range []int{1, 2, 4, 7, 16} {
		runs := make([][]byte, k)
		for i := range runs {
			if k > 2 && i == 1 {
				continue // empty run: must not count towards the fan-in
			}
			recs := make([]klogEntry, 1500+rng.Intn(3000))
			for j := range recs {
				recs[j] = klogEntry{key: []byte(fmt.Sprintf("key-%04d", rng.Intn(800))), vlogOff: uint64(rng.Intn(4)) * 32, vlen: uint32(i<<16 | j)}
				if rng.Intn(10) == 0 {
					recs[j].vlen = tombstoneVlen
				}
			}
			sort.SliceStable(recs, func(a, b int) bool { return compareKlog(recs[a], recs[b]) < 0 })
			for _, r := range recs {
				runs[i] = klogCodec{}.Encode(runs[i], r)
			}
		}
		merge := func(fn func(*sim.Proc, *host.Host, [][]byte) ([]byte, error)) ([]byte, sim.Time) {
			env := sim.NewEnv()
			cpu := host.New(env, host.DefaultSoCConfig())
			var out []byte
			env.Go("merge", func(p *sim.Proc) {
				var err error
				if out, err = fn(p, cpu, runs); err != nil {
					t.Error(err)
				}
			})
			env.Run()
			return out, env.Now()
		}
		want, wantT := merge(refMergeEncodedKlogRuns)
		got, gotT := merge(MergeEncodedKlogRuns)
		if !bytes.Equal(got, want) {
			t.Fatalf("k=%d: merged bytes differ from the reference merge", k)
		}
		if gotT != wantT {
			t.Fatalf("k=%d: merge charged %v of virtual time, reference %v", k, gotT, wantT)
		}
	}
	// A torn run is still an error, not a silent truncation.
	env := sim.NewEnv()
	cpu := host.New(env, host.DefaultSoCConfig())
	env.Go("merge", func(p *sim.Proc) {
		good := klogCodec{}.Encode(nil, klogEntry{key: []byte("a"), vlen: 1})
		if _, err := MergeEncodedKlogRuns(p, cpu, [][]byte{good, good[:len(good)-1]}); err == nil {
			t.Error("torn run merged without error")
		}
	})
	env.Run()
}

// TestRadixRunsCheckTieOrder: in race-detector builds, a radix-sorted batch
// whose source delivered equal keys out of cmp order — here secondary keys
// with descending primary keys — fails loudly instead of writing a misordered
// run.
func TestRadixRunsCheckTieOrder(t *testing.T) {
	if !raceEnabled {
		t.Skip("the tie-order check runs in race-detector builds only")
	}
	recs := make([]sidxEntry, 64)
	for i := range recs {
		recs[i] = sidxEntry{skey: []byte{byte(i % 4)}, pkey: []byte{byte(255 - i)}}
	}
	fx := newSortFixture(64 << 20)
	s := NewSorter[sidxEntry](fx.zm, fx.soc, fx.cfg, sidxCodec{}, sidxKey, compareSidx)
	s.radix = sidxRadixKey(1)
	fx.run(t, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("radix run formation accepted ties out of cmp order")
			}
		}()
		s.makeRuns(p, &sliceSource[sidxEntry]{recs: recs})
	})
}
