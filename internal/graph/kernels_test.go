package graph

import (
	"math/rand"
	"testing"
)

// randBitset builds a random bitset over n bits and the equivalent index set.
func randBitset(r *rand.Rand, n int, p float64) ([]uint64, map[int32]bool) {
	s := make([]uint64, BitsetWords(n))
	set := make(map[int32]bool)
	for i := int32(0); int(i) < n; i++ {
		if r.Float64() < p {
			SetBit(s, i)
			set[i] = true
		}
	}
	return s, set
}

// TestKernelsMatchReference fuzzes every word kernel against the naive
// per-bit set semantics.
func TestKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for iter := 0; iter < 200; iter++ {
		n := 1 + r.Intn(300)
		a, as := randBitset(r, n, r.Float64())
		b, bs := randBitset(r, n, r.Float64())

		if got := Popcount(a); got != len(as) {
			t.Fatalf("iter %d: Popcount = %d, want %d", iter, got, len(as))
		}
		for i := int32(0); int(i) < n; i++ {
			if TestBit(a, i) != as[i] {
				t.Fatalf("iter %d: TestBit(%d) = %v, want %v", iter, i, TestBit(a, i), as[i])
			}
		}

		u := append([]uint64(nil), a...)
		Union(u, b)
		x := append([]uint64(nil), a...)
		Intersect(x, b)
		d := append([]uint64(nil), a...)
		AndNot(d, b)
		for i := int32(0); int(i) < n; i++ {
			if TestBit(u, i) != (as[i] || bs[i]) {
				t.Fatalf("iter %d: Union bit %d wrong", iter, i)
			}
			if TestBit(x, i) != (as[i] && bs[i]) {
				t.Fatalf("iter %d: Intersect bit %d wrong", iter, i)
			}
			if TestBit(d, i) != (as[i] && !bs[i]) {
				t.Fatalf("iter %d: AndNot bit %d wrong", iter, i)
			}
		}

		wantContains := true
		for i := range bs {
			if !as[i] {
				wantContains = false
			}
		}
		if Contains(a, b) != wantContains {
			t.Fatalf("iter %d: Contains = %v, want %v", iter, Contains(a, b), wantContains)
		}
		if !Contains(a, x) {
			t.Fatalf("iter %d: a∩b must be a subset of a", iter)
		}
		if !Contains(u, b) {
			t.Fatalf("iter %d: a∪b must contain b", iter)
		}

		// IterateSetBits and AppendSetBits must emit ascending order.
		var it []int32
		IterateSetBits(a, func(i int32) bool { it = append(it, i); return true })
		app := AppendSetBits(nil, a)
		if len(it) != len(as) || len(app) != len(as) {
			t.Fatalf("iter %d: iterate/append lengths %d/%d, want %d", iter, len(it), len(app), len(as))
		}
		for j := range it {
			if it[j] != app[j] || (j > 0 && it[j] <= it[j-1]) || !as[it[j]] {
				t.Fatalf("iter %d: iteration order broken at %d", iter, j)
			}
		}
		// Early stop.
		stopped := 0
		IterateSetBits(a, func(i int32) bool { stopped++; return stopped < 3 })
		if want := min(3, len(as)); stopped != want {
			t.Fatalf("iter %d: early stop visited %d, want %d", iter, stopped, want)
		}
	}
}

// TestIntersectShorterSrc checks the documented clearing of dst words beyond
// len(src).
func TestIntersectShorterSrc(t *testing.T) {
	dst := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	src := []uint64{0xF0}
	Intersect(dst, src)
	if dst[0] != 0xF0 || dst[1] != 0 || dst[2] != 0 {
		t.Fatalf("Intersect with short src = %x", dst)
	}
	if !Contains([]uint64{0xF0}, []uint64{0x10, 0, 0}) {
		t.Fatal("Contains must tolerate zero words of inner beyond outer")
	}
	if Contains([]uint64{0xF0}, []uint64{0x10, 1}) {
		t.Fatal("Contains must reject set inner bits beyond outer")
	}
}

// TestDenseRowScans checks the masked row scans against the map graph on
// random graphs: RowAndInto and RowAndNotInto must return exactly the
// neighbours inside and outside the mask, ascending, and together partition
// the row.
func TestDenseRowScans(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		n := 65 + r.Intn(400) // spans multiple mask words
		g := randomIDGraph(r, n, r.Float64()*0.15)
		d := FromGraph(g)
		mask, set := randBitset(r, n, r.Float64())
		for i := int32(0); int(i) < n; i++ {
			var wantIn, wantOut []int32
			for _, id := range g.Neighbors(d.ID(i)) {
				if u := d.Index(id); set[u] {
					wantIn = append(wantIn, u)
				} else {
					wantOut = append(wantOut, u)
				}
			}
			if got := d.RowAndInto(i, mask, nil); !equalInt32(got, wantIn) {
				t.Fatalf("iter %d: RowAndInto(%d) = %v, want %v", iter, i, got, wantIn)
			}
			if got := d.RowAndNotInto(i, mask, nil); !equalInt32(got, wantOut) {
				t.Fatalf("iter %d: RowAndNotInto(%d) = %v, want %v", iter, i, got, wantOut)
			}
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
