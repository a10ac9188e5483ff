package core

import "math/bits"

// sortBlock is the length of the insertion-sorted blocks the merge passes
// start from, and the largest group msdSort hands to stableSort unsplit.
const sortBlock = 16

// stableSort sorts data by cmp, keeping equal records in their input order —
// the order sort.SliceStable produced, which compaction's duplicate
// resolution and the on-media record order depend on. Blocks of sortBlock
// records are insertion-sorted, then merged bottom-up, each pass moving every
// record once between data and scratch: O(n log n) moves and no allocation.
// Beyond one block, scratch must be at least as long as data; its contents
// are overwritten.
func stableSort[T any](data, scratch []T, cmp func(a, b T) int) {
	n := len(data)
	for lo := 0; lo < n; lo += sortBlock {
		insertionSort(data[lo:min(lo+sortBlock, n)], cmp)
	}
	if n <= sortBlock {
		return
	}
	src, dst := data, scratch[:n]
	for width := sortBlock; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			mergeHalves(dst[lo:hi], src[lo:mid], src[mid:hi], cmp)
		}
		src, dst = dst, src
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
}

func insertionSort[T any](a []T, cmp func(a, b T) int) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i
		for ; j > 0 && cmp(x, a[j-1]) < 0; j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}

// mergeHalves merges the sorted slices left and right into dst
// (len(dst) == len(left)+len(right)); on ties the left record goes first.
func mergeHalves[T any](dst, left, right []T, cmp func(a, b T) int) {
	if len(right) == 0 || cmp(left[len(left)-1], right[0]) <= 0 {
		copy(dst[copy(dst, left):], right) // already in order
		return
	}
	i, j, k := 0, 0, 0
	for i < len(left) && j < len(right) {
		if cmp(right[j], left[i]) < 0 {
			dst[k] = right[j]
			j++
		} else {
			dst[k] = left[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], left[i:])
	copy(dst[k:], right[j:])
}

// radixDigitBits caps the width of one radixSort digit: a digit's histogram
// has at most 2^radixDigitBits counters.
const radixDigitBits = 11

// radixMaxPasses is the most digit passes a 64-bit key span takes.
const radixMaxPasses = (64 + radixDigitBits - 1) / radixDigitBits

// radixSort stably orders data by key with a least-significant-digit radix
// sort over key−min. An L-bit span (L = bits.Len64(max−min)) takes the fewest
// passes whose digits are at most radixDigitBits wide, ⌈L/11⌉, each digit
// ⌈L/passes⌉ bits: one counting pass over data builds every digit's
// histogram, then each digit pass moves every record once between data and
// scratch. It returns the pass count — 0 when len(data) < 2 or every key is
// equal, in which case nothing moves. With more than one record, scratch must
// be at least as long as data; its contents are overwritten.
func radixSort[T any](data, scratch []T, key func(T) uint64) (passes int) {
	n := len(data)
	if n < 2 {
		return 0
	}
	lo, hi := key(data[0]), key(data[0])
	for _, r := range data[1:] {
		k := key(r)
		lo, hi = min(lo, k), max(hi, k)
	}
	span := bits.Len64(hi - lo)
	passes = (span + radixDigitBits - 1) / radixDigitBits
	if passes == 0 {
		return 0
	}
	width := uint((span + passes - 1) / passes)
	mask := uint64(1)<<width - 1
	var count [radixMaxPasses][1 << radixDigitBits]int
	for _, r := range data {
		k := key(r) - lo
		for d := 0; d < passes; d++ {
			count[d][k>>(width*uint(d))&mask]++
		}
	}
	src, dst := data, scratch[:n]
	for d := 0; d < passes; d++ {
		next := count[d][:mask+1]
		at := 0
		for i, c := range next {
			next[i] = at
			at += c
		}
		shift := width * uint(d)
		for _, r := range src {
			b := (key(r) - lo) >> shift & mask
			dst[next[b]] = r
			next[b]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(data, src)
	}
	return passes
}

// msdSort stably orders data by key(r) in bytes.Compare order and records
// with equal keys by cmp. cmp must order by bytes.Compare of key first, as
// compareKlog, compareSidx and comparePair do; the result is then exactly the
// order stableSort(data, cmp) gives. Every key must share data's first depth
// bytes.
//
// A group of more than sortBlock records is distributed stably into 257
// buckets on one key byte — bucket 0 for keys that end there, which sort
// first — and each bucket is sorted in turn. The batch itself (depth 0) first
// takes one pass comparing each key with the first to skip the bytes they all
// share, and distributes on the first byte that differs. A deeper group
// counts its records per bucket on byte depth and, when they fall in more
// than one bucket, distributes straight off those counts; only when they all
// share that byte does it take the prefix pass too. Groups of at most
// sortBlock records, and groups whose keys are all equal, go to stableSort,
// where cmp settles the ties.
//
// The key comparisons the work is charged as are added to shares, one per
// core, in the form the sort takes on len(shares) cores. The charge is n per
// pass over a group of n — the prefix pass, and a count pass together with
// the distribution that follows it — and m·⌊log2 m⌋ for a group of m handed
// to stableSort. Every pass over the group is cut into len(shares) contiguous
// slices (spread); each independent piece of work below it — a bucket, or the
// whole group when it goes to stableSort — stays on one core and is dealt
// whole, in bucket order, to the smallest share. The shares grow by the same
// count however many there are, so a single share takes the sequential
// sort's whole charge. With more than sortBlock records, scratch must be at
// least as long as data; its contents are overwritten.
func msdSort[T any](data, scratch []T, depth int, key func(T) []byte, cmp func(a, b T) int, shares []int64) {
	n := len(data)
	if n <= sortBlock {
		stableSort(data, scratch, cmp)
		deal(shares, sortCompares(n))
		return
	}
	// next[b] counts bucket b's records; distribute turns it into where each
	// bucket ends.
	var next [257]int
	if depth > 0 {
		spread(shares, n)
		countBuckets(data, depth, key, &next)
		switch b := msdBucket(key(data[0]), depth); {
		case next[b] < n:
			distribute(data, scratch, depth, &next, key, cmp, shares)
			return
		case b == 0: // every key ends at depth: all equal
			stableSort(data, scratch, cmp)
			deal(shares, sortCompares(n))
			return
		}
		next = [257]int{}
	}
	first := key(data[0])[depth:]
	shared, sameLen := len(first), true
	for _, r := range data[1:] {
		k := key(r)[depth:]
		sameLen = sameLen && len(k) == len(first)
		shared = commonPrefix(first[:shared], k)
	}
	spread(shares, n)
	if sameLen && shared == len(first) {
		stableSort(data, scratch, cmp)
		deal(shares, sortCompares(n))
		return
	}
	d := depth + shared
	countBuckets(data, d, key, &next)
	spread(shares, n)
	distribute(data, scratch, d, &next, key, cmp, shares)
}

// spread adds one pass over n records to shares, cut into len(shares)
// contiguous slices, the first n mod len(shares) of them one record longer.
func spread(shares []int64, n int) {
	q, r := n/len(shares), n%len(shares)
	for i := range shares {
		shares[i] += int64(q)
		if i < r {
			shares[i]++
		}
	}
}

// deal adds c, the charge of work that stays on one core, to the smallest
// share.
func deal(shares []int64, c int64) { shares[least(shares)] += c }

// least is the index of the smallest of shares, the first of equal ones.
func least(shares []int64) int {
	i := 0
	for j, v := range shares {
		if v < shares[i] {
			i = j
		}
	}
	return i
}

// countBuckets adds each record to its msdBucket count at byte d.
func countBuckets[T any](data []T, d int, key func(T) []byte, count *[257]int) {
	for _, r := range data {
		count[msdBucket(key(r), d)]++
	}
}

// distribute moves data stably into its buckets at byte d, whose sizes next
// holds, through scratch, then sorts each bucket, its charge dealt to
// shares. Afterwards next[b] is where bucket b ends.
func distribute[T any](data, scratch []T, d int, next *[257]int, key func(T) []byte, cmp func(a, b T) int, shares []int64) {
	n := len(data)
	at := 0
	for b, c := range next {
		next[b] = at
		at += c
	}
	for _, r := range data {
		b := msdBucket(key(r), d)
		scratch[next[b]] = r
		next[b]++
	}
	copy(data, scratch[:n])
	lo := 0
	for b, hi := range next {
		switch {
		case hi == lo:
		case b == 0:
			stableSort(data[lo:hi], scratch[lo:hi], cmp)
			deal(shares, sortCompares(hi-lo))
		default:
			// The bucket's work stays on the smallest share's core.
			i := least(shares)
			msdSort(data[lo:hi], scratch[lo:hi], d+1, key, cmp, shares[i:i+1])
		}
		lo = hi
	}
}

// msdBucket is key's bucket at byte d: 0 when the key ends there, else the
// byte plus one.
func msdBucket(key []byte, d int) int {
	if d >= len(key) {
		return 0
	}
	return int(key[d]) + 1
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// sortCompares is what stableSort on m records is charged as: m·⌊log2 m⌋ key
// comparisons.
func sortCompares(m int) int64 {
	if m < 2 {
		return 0
	}
	return int64(m) * int64(bits.Len(uint(m))-1)
}

// sortBuf is the record batch and merge scratch one sort job reuses across
// its flushes and runs. It is owned by that job and dies with it; nothing
// here is pooled across jobs.
type sortBuf[T any] struct {
	recs    []T
	scratch []T
}

// msd stably orders b.recs by key bytes, then cmp, with msdSort over the
// batch's scratch, its charge added to shares.
func (b *sortBuf[T]) msd(key func(T) []byte, cmp func(a, b T) int, shares []int64) {
	if n := len(b.recs); n > sortBlock {
		b.growScratch(n)
	}
	msdSort(b.recs, b.scratch, 0, key, cmp, shares)
}

// radix stably orders b.recs by key with radixSort over the same scratch and
// returns its pass count.
func (b *sortBuf[T]) radix(key func(T) uint64) int {
	if n := len(b.recs); n > 1 {
		b.growScratch(n)
	}
	return radixSort(b.recs, b.scratch, key)
}

// growScratch sizes the scratch to the batch's capacity the first time a
// batch of n records needs more than it has.
func (b *sortBuf[T]) growScratch(n int) {
	if len(b.scratch) < n {
		b.scratch = make([]T, cap(b.recs))
	}
}
