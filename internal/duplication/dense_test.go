package duplication

import (
	"math/rand"
	"testing"
)

// hasSDRRef is the original map-and-slice implementation of HasSDR,
// retained as the differential baseline of HasSDR and the ablation baseline
// for BenchmarkDuplication*.
func hasSDRRef(values []int, copies Copies) bool {
	sets := make([]ModSet, 0, len(values))
	for _, v := range values {
		if s := copies[v]; s != 0 {
			sets = append(sets, s)
		}
	}
	matchedBy := make(map[int]int) // module -> set index
	var try func(i int, visited *ModSet) bool
	try = func(i int, visited *ModSet) bool {
		for _, m := range sets[i].Modules() {
			if visited.Has(m) {
				continue
			}
			*visited = visited.Add(m)
			holder, taken := matchedBy[m]
			if !taken || try(holder, visited) {
				matchedBy[m] = i
				return true
			}
		}
		return false
	}
	for i := range sets {
		visited := ModSet(0)
		if !try(i, &visited) {
			return false
		}
	}
	return true
}

// TestHasSDRMatchesRef fuzzes the allocation-free bipartite matcher against
// the original map-and-slice implementation.
func TestHasSDRMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for iter := 0; iter < 5000; iter++ {
		k := 1 + r.Intn(10)
		nvals := 1 + r.Intn(12)
		copies := make(Copies, nvals)
		values := make([]int, nvals)
		for i := range values {
			values[i] = i
			if r.Intn(4) > 0 { // some values stay wildcards
				var s ModSet
				for m := 0; m < k; m++ {
					if r.Intn(3) == 0 {
						s = s.Add(m)
					}
				}
				copies[i] = s
			}
		}
		if got, want := HasSDR(values, copies), hasSDRRef(values, copies); got != want {
			t.Fatalf("iter %d: HasSDR = %v, ref %v (copies %v)", iter, got, want, copies)
		}
	}
}

// TestConflictFreeWithMatchesClone checks the virtual-placement SDR test
// against the clone-and-check formulation it replaced in the backtracking
// leaf.
func TestConflictFreeWithMatchesClone(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for iter := 0; iter < 3000; iter++ {
		k := 2 + r.Intn(6)
		nops := 1 + r.Intn(6)
		ops := make([]int, nops)
		copies := make(Copies, nops)
		for i := range ops {
			ops[i] = i
			if r.Intn(3) > 0 {
				var s ModSet
				for m := 0; m < k; m++ {
					if r.Intn(3) == 0 {
						s = s.Add(m)
					}
				}
				copies[i] = s
			}
		}
		var freeVals, choice []int
		for _, v := range ops {
			if r.Intn(2) == 0 {
				freeVals = append(freeVals, v)
				choice = append(choice, r.Intn(k))
			}
		}
		trial := copies.Clone()
		for j, v := range freeVals {
			trial[v] = trial[v].Add(choice[j])
		}
		want := ConflictFree(ops, trial)
		if got := conflictFreeWith(ops, copies, freeVals, choice); got != want {
			t.Fatalf("iter %d: conflictFreeWith = %v, want %v (ops %v copies %v free %v choice %v)",
				iter, got, want, ops, copies, freeVals, choice)
		}
	}
}

// benchSDRInputs builds a workload shaped like the backtracking search's
// leaf checks: many SDR feasibility probes over instruction-sized operand
// sets.
func benchSDRInputs() ([][]int, Copies) {
	r := rand.New(rand.NewSource(32))
	const k = 8
	copies := make(Copies, 256)
	for v := 0; v < 256; v++ {
		var s ModSet
		for m := 0; m < k; m++ {
			if r.Intn(4) == 0 {
				s = s.Add(m)
			}
		}
		if s == 0 {
			s = s.Add(r.Intn(k))
		}
		copies[v] = s
	}
	sets := make([][]int, 512)
	for i := range sets {
		ops := make([]int, k)
		for j := range ops {
			ops[j] = r.Intn(256)
		}
		sets[i] = ops
	}
	return sets, copies
}

func BenchmarkDuplicationDense(b *testing.B) {
	sets, copies := benchSDRInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ops := range sets {
			HasSDR(ops, copies)
		}
	}
}

func BenchmarkDuplicationMap(b *testing.B) {
	sets, copies := benchSDRInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ops := range sets {
			hasSDRRef(ops, copies)
		}
	}
}
