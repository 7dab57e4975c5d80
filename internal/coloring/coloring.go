// Package coloring implements the graph-coloring stage of memory-module
// assignment (Gupta & Soffa, PPOPP 1988, §2.1, Fig. 4).
//
// Nodes are data values, colors are memory modules, and an edge means the
// two values appear in the same long instruction and therefore must live in
// different modules. The paper's heuristic colors nodes in order of
// "urgency" and removes a node into V_unassigned whenever no module remains
// for it; removed values are later replicated by internal/duplication.
//
// DSATUR and first-fit baselines and an exact branch-and-bound colorer are
// provided for the ablation experiments.
package coloring

import (
	"fmt"
	"sort"

	"parmem/internal/arena"
	"parmem/internal/faultinject"
	"parmem/internal/graph"
)

// PickPolicy selects which available module an assignable node receives.
type PickPolicy int

const (
	// LowestIndex deterministically picks the smallest-numbered available
	// module. This is the default.
	LowestIndex PickPolicy = iota
	// LeastLoaded picks the available module holding the fewest values so
	// far (ties toward the smallest index), spreading values evenly.
	LeastLoaded
)

// Options configures a coloring run.
type Options struct {
	// K is the number of memory modules (colors); it must be >= 1.
	K int
	// Precolored fixes module assignments decided by an earlier phase
	// (separator vertices of a previous atom, globals in STOR2, earlier
	// instruction groups in STOR3). Precolored nodes are never moved and
	// never removed.
	Precolored map[int]int
	// Pick selects the module-choice policy; zero value is LowestIndex.
	Pick PickPolicy
	// Scratch optionally supplies the arena the dense implementation
	// borrows its selection-loop buffers from — worker pools pass their
	// per-worker shard so repeated colorings reuse one working set. The
	// caller owns its lifecycle (Reset between calls); nil draws a Scratch
	// from the global pool for the duration of the call. GuptaSoffaMap
	// ignores it.
	Scratch *arena.Scratch
}

// Result is the outcome of a coloring run.
type Result struct {
	// Assign maps each colored node to its module in [0,K).
	Assign map[int]int
	// Unassigned lists the removed nodes (paper V_unassigned) in removal
	// order.
	Unassigned []int
}

// GuptaSoffa colors g with opt.K colors using the urgency heuristic of
// paper Fig. 4. Nodes that cannot be colored are removed into
// Result.Unassigned instead of failing. Panics if opt.K < 1 (caller bug) or
// if a precolored node has an out-of-range module.
//
// It snapshots g into the dense graph core (graph.Dense) and runs
// allocation-free index loops; GuptaSoffaMap is the original map-graph
// implementation, which produces bit-identical results.
func GuptaSoffa(g *graph.Graph, opt Options) Result {
	faultinject.Check("coloring.guptasoffa")
	return guptaSoffaDense(g, opt)
}

// GuptaSoffaMap is the original map-graph implementation of the urgency
// heuristic, retained as the differential-test and ablation baseline of the
// dense core. No production path calls it.
func GuptaSoffaMap(g *graph.Graph, opt Options) Result {
	k := opt.K
	if k < 1 {
		panic(fmt.Sprintf("coloring: K = %d, need at least one module", k))
	}
	assign := make(map[int]int, g.NumNodes())
	for v, m := range opt.Precolored {
		if m < 0 || m >= k {
			panic(fmt.Sprintf("coloring: precolored node %d has module %d outside [0,%d)", v, m, k))
		}
		if g.HasNode(v) {
			assign[v] = m
		}
	}
	res := Result{Assign: assign}

	// Directed edge weights, paper Fig. 4: edges leaving a node of degree
	// < k weigh nothing (any order colors such a node), otherwise the
	// weight is conf(ni,nj) — the number of instructions using both.
	wt := func(from, to int) int {
		if g.Degree(from) < k {
			return 0
		}
		return g.Weight(from, to)
	}

	// S_ni = total outgoing weight; the most conflicted node goes first.
	s := make(map[int]int, g.NumNodes())
	for _, v := range g.Nodes() {
		sum := 0
		for _, u := range g.Neighbors(v) {
			sum += wt(v, u)
		}
		s[v] = sum
	}

	rest := make(map[int]bool, g.NumNodes())
	for _, v := range g.Nodes() {
		if _, ok := assign[v]; !ok {
			rest[v] = true
		}
	}

	moduleLoad := make([]int, k)
	for _, m := range assign {
		moduleLoad[m]++
	}

	// availableCount returns K_nj (modules not used by assigned neighbors)
	// and the set itself.
	available := func(v int) []bool {
		used := make([]bool, k)
		for _, u := range g.Neighbors(v) {
			if m, ok := assign[u]; ok {
				used[m] = true
			}
		}
		return used
	}

	// If nothing is precolored, seed with the maximum-S node, assigned to
	// module 0 (paper: ASSIGN(n_first) = M1).
	if len(assign) == 0 && len(rest) > 0 {
		first := -1
		for v := range rest {
			if first == -1 || s[v] > s[first] || (s[v] == s[first] && v < first) {
				first = v
			}
		}
		assign[first] = 0
		moduleLoad[0]++
		delete(rest, first)
	}

	for len(rest) > 0 {
		// Choose n_next maximizing urgency U = (Σ incoming weight from
		// assigned neighbors) / K. Compare fractions num/den by
		// cross-multiplication; K = 0 is infinite urgency (the node must
		// be dealt with immediately — it goes to V_unassigned).
		type cand struct {
			v, num, den int // den = K_nj; den 0 means +inf urgency
		}
		best := cand{v: -1}
		better := func(a, b cand) bool {
			if b.v == -1 {
				return true
			}
			// Infinite urgencies first.
			if (a.den == 0) != (b.den == 0) {
				return a.den == 0
			}
			if a.den == 0 { // both infinite: higher num, then lower id
				if a.num != b.num {
					return a.num > b.num
				}
				return a.v < b.v
			}
			// a.num/a.den vs b.num/b.den.
			l, r := a.num*b.den, b.num*a.den
			if l != r {
				return l > r
			}
			if s[a.v] != s[b.v] {
				return s[a.v] > s[b.v]
			}
			return a.v < b.v
		}
		// Deterministic scan order.
		restSorted := make([]int, 0, len(rest))
		for v := range rest {
			restSorted = append(restSorted, v)
		}
		sort.Ints(restSorted)
		for _, v := range restSorted {
			used := available(v)
			den, num := 0, 0
			for m := 0; m < k; m++ {
				if !used[m] {
					den++
				}
			}
			for _, u := range g.Neighbors(v) {
				if _, ok := assign[u]; ok {
					num += wt(u, v)
				}
			}
			c := cand{v: v, num: num, den: den}
			if better(c, best) {
				best = c
			}
		}

		v := best.v
		delete(rest, v)
		if best.den == 0 {
			res.Unassigned = append(res.Unassigned, v)
			continue
		}
		used := available(v)
		m := pickModule(used, moduleLoad, opt.Pick)
		assign[v] = m
		moduleLoad[m]++
	}
	return res
}

// pickModule returns an unused module index per the policy. At least one
// module must be free.
func pickModule(used []bool, load []int, pick PickPolicy) int {
	best := -1
	for m := range used {
		if used[m] {
			continue
		}
		switch {
		case best == -1:
			best = m
		case pick == LeastLoaded && load[m] < load[best]:
			best = m
		}
	}
	if best == -1 {
		panic("coloring: pickModule called with no free module")
	}
	return best
}

// CheckProper verifies that assign is a proper partial coloring of g: no
// edge joins two assigned nodes of the same color. It returns the first
// offending edge in (U,V) order, or ok. The scan walks adjacency in node
// order with a reusable neighbor buffer instead of materializing the full
// edge list.
func CheckProper(g *graph.Graph, assign map[int]int) error {
	var nbuf []int
	for _, u := range g.Nodes() {
		cu, okU := assign[u]
		if !okU {
			continue
		}
		nbuf = g.NeighborsAppend(u, nbuf[:0])
		for _, v := range nbuf {
			if v <= u {
				continue // each edge once, as (min,max) — Edges() order
			}
			if cv, okV := assign[v]; okV && cu == cv {
				return fmt.Errorf("coloring: adjacent nodes %d and %d share module %d", u, v, cu)
			}
		}
	}
	return nil
}

// DSATUR colors g with k colors by the saturation-degree heuristic,
// removing nodes whose saturation reaches k, exactly as GuptaSoffa removes
// them, so the two heuristics are comparable by |Unassigned|.
func DSATUR(g *graph.Graph, k int) Result {
	if k < 1 {
		panic("coloring: DSATUR needs k >= 1")
	}
	assign := make(map[int]int, g.NumNodes())
	res := Result{Assign: assign}
	remaining := make(map[int]bool)
	for _, v := range g.Nodes() {
		remaining[v] = true
	}
	satur := func(v int) map[int]bool {
		set := map[int]bool{}
		for _, u := range g.Neighbors(v) {
			if c, ok := assign[u]; ok {
				set[c] = true
			}
		}
		return set
	}
	for len(remaining) > 0 {
		// Max saturation, tie: max degree, tie: lowest id.
		best, bestSat, bestDeg := -1, -1, -1
		keys := make([]int, 0, len(remaining))
		for v := range remaining {
			keys = append(keys, v)
		}
		sort.Ints(keys)
		for _, v := range keys {
			sat := len(satur(v))
			deg := g.Degree(v)
			if sat > bestSat || (sat == bestSat && deg > bestDeg) {
				best, bestSat, bestDeg = v, sat, deg
			}
		}
		delete(remaining, best)
		used := satur(best)
		colored := false
		for c := 0; c < k; c++ {
			if !used[c] {
				assign[best] = c
				colored = true
				break
			}
		}
		if !colored {
			res.Unassigned = append(res.Unassigned, best)
		}
	}
	return res
}

// FirstFit colors nodes in ascending id order with the lowest free color,
// removing nodes with no free color. It is the weakest baseline.
func FirstFit(g *graph.Graph, k int) Result {
	if k < 1 {
		panic("coloring: FirstFit needs k >= 1")
	}
	assign := make(map[int]int, g.NumNodes())
	res := Result{Assign: assign}
	for _, v := range g.Nodes() {
		used := make([]bool, k)
		for _, u := range g.Neighbors(v) {
			if c, ok := assign[u]; ok {
				used[c] = true
			}
		}
		colored := false
		for c := 0; c < k; c++ {
			if !used[c] {
				assign[v] = c
				colored = true
				break
			}
		}
		if !colored {
			res.Unassigned = append(res.Unassigned, v)
		}
	}
	return res
}

// ExactMinRemoved finds, by branch and bound, the minimum number of nodes
// whose removal leaves g k-colorable, returning an optimal Result. It is
// exponential and intended for graphs of at most ~20 nodes (ablation and
// worst-case tests only).
func ExactMinRemoved(g *graph.Graph, k int) Result {
	nodes := g.Nodes()
	n := len(nodes)
	bestRemoved := n + 1
	var bestAssign map[int]int
	var bestUnassigned []int

	assign := make(map[int]int, n)
	var removed []int

	var rec func(i, removedCount int)
	rec = func(i, removedCount int) {
		if removedCount >= bestRemoved {
			return // prune
		}
		if i == n {
			bestRemoved = removedCount
			bestAssign = make(map[int]int, len(assign))
			for v, c := range assign {
				bestAssign[v] = c
			}
			bestUnassigned = append([]int(nil), removed...)
			return
		}
		v := nodes[i]
		used := make([]bool, k)
		for _, u := range g.Neighbors(v) {
			if c, ok := assign[u]; ok {
				used[c] = true
			}
		}
		// Try each free color; symmetry break: allow only colors up to
		// (max used so far)+1 would be unsound with removals interleaved,
		// so try all free colors.
		for c := 0; c < k; c++ {
			if used[c] {
				continue
			}
			assign[v] = c
			rec(i+1, removedCount)
			delete(assign, v)
		}
		// Or remove v.
		removed = append(removed, v)
		rec(i+1, removedCount+1)
		removed = removed[:len(removed)-1]
	}
	rec(0, 0)
	sort.Ints(bestUnassigned)
	return Result{Assign: bestAssign, Unassigned: bestUnassigned}
}
