package core

// sortBlock is the length of the insertion-sorted blocks the merge passes
// start from.
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

// sortBuf is the record batch and merge scratch one sort job reuses across
// its flushes, buckets and runs. It is owned by that job and dies with it;
// nothing here is pooled across jobs.
type sortBuf[T any] struct {
	recs    []T
	scratch []T
}

// sort stably orders b.recs by cmp, growing the scratch to the batch's
// capacity the first time a batch needs it.
func (b *sortBuf[T]) sort(cmp func(a, b T) int) {
	if n := len(b.recs); n > sortBlock && len(b.scratch) < n {
		b.scratch = make([]T, cap(b.recs))
	}
	stableSort(b.recs, b.scratch, cmp)
}
