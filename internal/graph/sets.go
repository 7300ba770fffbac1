package graph

import (
	"math"
	"sort"
)

// ContainsSorted reports whether x occurs in the ascending-sorted slice a.
func ContainsSorted(a []int64, x int64) bool {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= x })
	return i < len(a) && a[i] == x
}

// IntersectSorted computes the intersection of two ascending-sorted sets a
// and b, appending the result to dst and returning it. When the sizes are
// badly skewed it switches from a merge walk to galloping (binary) search
// over the larger set, which matters for the hub-vertex adjacency sets of
// power-law graphs.
func IntersectSorted(dst, a, b []int64) []int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	// Galloping pays off when one set is much larger than the other.
	if len(b) >= GallopRatio*len(a) {
		return intersectGallop(dst, a, b)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// intersectGallop intersects a (small) with b (large) by exponentially
// advancing a cursor in b for each element of a.
func intersectGallop(dst, a, b []int64) []int64 {
	lo := 0
	for _, x := range a {
		// Exponential probe from lo.
		step := 1
		hi := lo
		for hi < len(b) && b[hi] < x {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(b) {
			hi = len(b)
		}
		// Binary search in (lo-1, hi].
		k := lo + sort.Search(hi-lo, func(i int) bool { return b[lo+i] >= x })
		if k < len(b) && b[k] == x {
			dst = append(dst, x)
			lo = k + 1
		} else {
			lo = k
		}
		if lo >= len(b) {
			break
		}
	}
	return dst
}

// IntersectMany intersects k ≥ 1 ascending-sorted sets, appending to dst.
// Sets are intersected smallest-first so intermediate results shrink as
// fast as possible.
func IntersectMany(dst []int64, sets ...[]int64) []int64 {
	switch len(sets) {
	case 0:
		return dst
	case 1:
		return append(dst, sets[0]...)
	}
	ordered := make([][]int64, len(sets))
	copy(ordered, sets)
	sort.Slice(ordered, func(i, j int) bool { return len(ordered[i]) < len(ordered[j]) })
	cur := append([]int64(nil), ordered[0]...)
	buf := make([]int64, 0, len(cur))
	for _, s := range ordered[1:] {
		buf = IntersectSorted(buf[:0], cur, s)
		cur, buf = buf, cur
		if len(cur) == 0 {
			break
		}
	}
	return append(dst, cur...)
}

// UnionSorted merges two ascending-sorted sets without duplicates,
// appending to dst.
func UnionSorted(dst, a, b []int64) []int64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// DiffSorted appends a \ b (ascending-sorted set difference) to dst.
func DiffSorted(dst, a, b []int64) []int64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return append(dst, a[i:]...)
}

// NoUpper is the hi of Between that bounds nothing.
const NoUpper = int64(math.MaxInt64)

// Between returns the subslice of the ascending-sorted s strictly
// between lo and hi: the part a symmetry-breaking bound v > lo, v < hi
// keeps when ≺ is < on ids. Both cuts are searched from the back, where
// they usually lie: with ids in degree order, the neighbours above a
// bound are a short suffix. lo < 0 and hi == NoUpper bound nothing.
func Between(s []int64, lo, hi int64) []int64 {
	if hi != NoUpper {
		s = s[:firstAbove(s, hi-1)]
	}
	if lo >= 0 {
		s = s[firstAbove(s, lo):]
	}
	return s
}

// firstAbove returns the least i with s[i] > x (len(s) when there is
// none), galloping backwards from the end of the ascending-sorted s and
// then bisecting the last step. A list wholly above x answers at once.
func firstAbove(s []int64, x int64) int {
	hi := len(s) // s[hi:] > x
	if hi == 0 || s[hi-1] <= x {
		return hi
	}
	if s[0] > x {
		return 0
	}
	hi--
	lo, step := hi-1, 1 // s[lo] <= x, or lo < 0
	for lo >= 0 && s[lo] > x {
		hi = lo
		step <<= 1
		lo = hi - step
	}
	lo = max(lo+1, 0) // the answer is in [lo, hi]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
