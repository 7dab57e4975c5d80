// Package duplication resolves the memory-access conflicts that survive
// graph coloring by replicating data values across memory modules
// (Gupta & Soffa, PPOPP 1988, §2.2).
//
// Two strategies are implemented:
//
//   - Backtrack (paper Fig. 6): instructions are processed one at a time in
//     order of how many replicable operands they contain; for each, an
//     exhaustive search over module placements finds the assignment that
//     creates the fewest new copies.
//   - HittingSet (paper Figs. 7, 9, 10): all instructions are examined
//     before any replication decision; for every operand-combination size
//     3..k, the still-conflicting combinations define candidate sets whose
//     minimum hitting set (approximated greedily) is duplicated, and the new
//     copies are placed by a grouped greedy placement.
//
// A combination of values is conflict-free when the modules holding their
// copies admit a system of distinct representatives — each value can be
// fetched from its own module in the same cycle.
package duplication

import "math/bits"

// ModSet is a set of memory-module indices packed into a bitmask.
// Module indices must lie in [0,64).
type ModSet uint64

// Has reports whether module m is in the set.
func (s ModSet) Has(m int) bool { return s&(1<<uint(m)) != 0 }

// Add returns the set with module m added.
func (s ModSet) Add(m int) ModSet { return s | 1<<uint(m) }

// Remove returns the set with module m removed.
func (s ModSet) Remove(m int) ModSet { return s &^ (1 << uint(m)) }

// Count returns the number of modules in the set.
func (s ModSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Modules returns the module indices in ascending order.
func (s ModSet) Modules() []int {
	out := make([]int, 0, s.Count())
	for m := 0; s != 0; m++ {
		if s.Has(m) {
			out = append(out, m)
			s = s.Remove(m)
		}
	}
	return out
}

// Full returns the set of all k modules.
func Full(k int) ModSet {
	if k >= 64 {
		return ^ModSet(0)
	}
	return ModSet(1)<<uint(k) - 1
}

// Copies records where each data value is stored: value id → set of memory
// modules holding a copy. Values absent from the map have no storage yet.
type Copies map[int]ModSet

// Clone returns a deep copy.
func (c Copies) Clone() Copies {
	out := make(Copies, len(c))
	for v, s := range c {
		out[v] = s
	}
	return out
}

// TotalCopies returns the total number of stored copies.
func (c Copies) TotalCopies() int {
	n := 0
	for _, s := range c {
		n += s.Count()
	}
	return n
}

// Multi returns how many values have more than one copy.
func (c Copies) Multi() int {
	n := 0
	for _, s := range c {
		if s.Count() > 1 {
			n++
		}
	}
	return n
}

// HasSDR reports whether the given values can be fetched in parallel: their
// copy sets admit a system of distinct representatives (one private module
// per value). Values with no copies yet are treated as wildcards — they can
// later be placed in any module — so they only require the total operand
// count to stay within k, which the scheduler guarantees.
//
// The check is a bipartite matching (values → modules) by augmenting paths;
// combination sizes are at most k ≤ 64, so this is effectively constant
// time.
func HasSDR(values []int, copies Copies) bool {
	// Collect the constrained values (those that already have copies) into a
	// stack buffer — HasSDR runs inside the innermost search loops of both
	// duplication strategies and must not allocate.
	var st sdrState
	sets := st.sets[:0]
	for _, v := range values {
		if s := copies[v]; s != 0 {
			if len(sets) == cap(sets) {
				return false // pigeonhole: more constrained values than modules
			}
			sets = append(sets, s)
		}
	}
	return st.matchAll(sets)
}

// sdrState is the scratch of one bipartite-matching run. It lives on the
// caller's stack: the matcher is a method rather than a recursive closure
// precisely so escape analysis keeps it there (the closure form forced a
// heap allocation per call).
type sdrState struct {
	sets      [64]ModSet
	matchedBy [64]int8 // module -> set index; valid only while taken.Has(m)
	taken     ModSet   // modules currently matched
}

// matchAll reports whether every set can be matched to a distinct module.
// Matching state lives in fixed arrays (module indices are < 64 by the
// ModSet representation) and candidate modules are iterated by peeling the
// lowest set bit — ascending module order, exactly like the Modules() slice
// the map-based implementation walked, so the match outcome is unchanged.
//
// Two word-level shortcuts keep the common cases out of the augmenting-path
// search without changing any outcome: the union of all sets must have at
// least one module per set (Hall's condition for the full family — popcount
// of one word), and the matched-module word `taken` replaces the 64-entry
// matchedBy wipe each run needed before.
func (st *sdrState) matchAll(sets []ModSet) bool {
	if len(sets) > 64 {
		return false // pigeonhole
	}
	union := ModSet(0)
	for _, s := range sets {
		union |= s
	}
	if union.Count() < len(sets) {
		return false // Hall: fewer modules than sets to match
	}
	st.taken = 0
	for i := range sets {
		visited := ModSet(0)
		if !st.try(sets, i, &visited) {
			return false
		}
	}
	return true
}

func (st *sdrState) try(sets []ModSet, i int, visited *ModSet) bool {
	for {
		rem := sets[i] &^ *visited
		if rem == 0 {
			return false
		}
		m := bits.TrailingZeros64(uint64(rem))
		*visited = visited.Add(m)
		if !st.taken.Has(m) || st.try(sets, int(st.matchedBy[m]), visited) {
			st.taken = st.taken.Add(m)
			st.matchedBy[m] = int8(i)
			return true
		}
	}
}

// matchAll is the slice-input form used by callers that assemble their own
// set list (conflictFreeWith).
func matchAll(sets []ModSet) bool {
	var st sdrState
	return st.matchAll(sets)
}

// ConflictFree reports whether a whole instruction (operand set) is
// fetchable in one cycle under the current copies.
func ConflictFree(operands []int, copies Copies) bool {
	return HasSDR(operands, copies)
}

// MatchModules computes the concrete fetch schedule for an instruction: for
// every value with storage it picks the module that supplies the fetch, all
// pairwise distinct if possible. The boolean reports whether a complete
// matching exists; values that could not be matched (hardware conflict) are
// assigned the first module of their copy set. Values without storage are
// omitted from the result.
func MatchModules(values []int, copies Copies) (map[int]int, bool) {
	type entry struct {
		v int
		s ModSet
	}
	var es []entry
	for _, v := range values {
		if s := copies[v]; s != 0 {
			es = append(es, entry{v, s})
		}
	}
	var matchedBy [64]int // module -> entry index, -1 = free
	for i := range matchedBy {
		matchedBy[i] = -1
	}
	var try func(i int, visited *ModSet) bool
	try = func(i int, visited *ModSet) bool {
		for {
			rem := es[i].s &^ *visited
			if rem == 0 {
				return false
			}
			m := bits.TrailingZeros64(uint64(rem))
			*visited = visited.Add(m)
			if h := matchedBy[m]; h < 0 || try(h, visited) {
				matchedBy[m] = i
				return true
			}
		}
	}
	ok := true
	for i := range es {
		visited := ModSet(0)
		if !try(i, &visited) {
			ok = false
		}
	}
	out := make(map[int]int, len(es))
	for _, e := range es {
		out[e.v] = bits.TrailingZeros64(uint64(e.s)) // first copy, fallback
	}
	for m, i := range matchedBy {
		if i >= 0 {
			out[es[i].v] = m
		}
	}
	return out, ok
}
