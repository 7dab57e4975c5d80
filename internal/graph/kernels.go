package graph

import "math/bits"

// Word-at-a-time bitset kernels.
//
// The hot phases of the assignment engine (MCS-M ordering, urgency
// coloring) keep per-vertex flags — "already numbered", "already assigned"
// — as flat bitsets over dense indices and probe them while walking CSR
// rows. These kernels answer set questions about such bitsets one uint64
// word — 64 vertices — at a time, and every iteration order is ascending
// bit order, so call sites keep the "lowest id first" tie-break rules of
// the reference algorithms bit-identically.
//
// A bitset over n vertices is a []uint64 of BitsetWords(n) words; bit i of
// word i/64 is vertex i. All binary kernels require len(dst) >= len(src)
// (the caller sizes both from the same vertex count).

// BitsetWords returns the []uint64 length covering n bits.
func BitsetWords(n int) int { return (n + 63) / 64 }

// TestBit reports whether bit i is set.
func TestBit(s []uint64, i int32) bool {
	return s[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0
}

// SetBit sets bit i.
func SetBit(s []uint64, i int32) {
	s[uint32(i)>>6] |= 1 << (uint32(i) & 63)
}

// ClearBit clears bit i.
func ClearBit(s []uint64, i int32) {
	s[uint32(i)>>6] &^= 1 << (uint32(i) & 63)
}

// Union ors src into dst word by word: dst |= src.
func Union(dst, src []uint64) {
	for w, x := range src {
		dst[w] |= x
	}
}

// Intersect ands src into dst word by word: dst &= src. Words of dst beyond
// len(src) are cleared (they intersect the empty suffix).
func Intersect(dst, src []uint64) {
	for w := range dst {
		if w < len(src) {
			dst[w] &= src[w]
		} else {
			dst[w] = 0
		}
	}
}

// AndNot clears every src bit from dst word by word: dst &^= src.
func AndNot(dst, src []uint64) {
	for w, x := range src {
		dst[w] &^= x
	}
}

// Popcount returns the number of set bits.
func Popcount(s []uint64) int {
	n := 0
	for _, x := range s {
		n += bits.OnesCount64(x)
	}
	return n
}

// Contains reports whether inner is a subset of outer: every set bit of
// inner is set in outer. Words of inner beyond len(outer) must be zero for
// the subset to hold.
func Contains(outer, inner []uint64) bool {
	for w, x := range inner {
		if w < len(outer) {
			if x&^outer[w] != 0 {
				return false
			}
		} else if x != 0 {
			return false
		}
	}
	return true
}

// IterateSetBits calls fn for every set bit in ascending order, stopping
// early when fn returns false.
func IterateSetBits(s []uint64, fn func(i int32) bool) {
	for w, x := range s {
		base := int32(w) << 6
		for x != 0 {
			if !fn(base + int32(bits.TrailingZeros64(x))) {
				return
			}
			x &= x - 1
		}
	}
}

// AppendSetBits appends every set bit index to dst in ascending order and
// returns the extended slice.
func AppendSetBits(dst []int32, s []uint64) []int32 {
	for w, x := range s {
		base := int32(w) << 6
		for x != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return dst
}
