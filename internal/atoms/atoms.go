// Package atoms implements decomposition of a graph into atoms — maximal
// subgraphs without clique separators (Tarjan, Decomposition by Clique
// Separators, Discrete Math. 55, 1985).
//
// The paper's coloring stage (Gupta & Soffa §2.1) first splits the
// access-conflict graph into atoms: if every atom is k-colorable then the
// whole graph is, so the heuristic only ever works on one atom at a time.
//
// The decomposition follows the classic two-step scheme:
//
//  1. Compute a minimal triangulation H = G+F and a minimal elimination
//     ordering via MCS-M (Berry, Blair, Heggernes, Villanger, Maximum
//     Cardinality Search for Computing Minimal Triangulations of Graphs,
//     Algorithmica 2004).
//  2. Scan vertices in elimination order; whenever the not-yet-eliminated
//     H-neighborhood of a vertex is a clique in G, it is a clique minimal
//     separator: split off the component containing the vertex as an atom.
package atoms

import (
	"container/heap"
	"sort"

	"parmem/internal/arena"
	"parmem/internal/graph"
)

// Atom is one subgraph of the decomposition.
type Atom struct {
	Nodes []int        // sorted vertex ids
	Graph *graph.Graph // subgraph of the original graph induced by Nodes
}

// Decomposition is the result of Decompose.
type Decomposition struct {
	Atoms      []Atom  // atoms in the order they were split off
	Separators [][]int // the clique minimal separators used, sorted sets
	Fill       int     // number of fill edges added by the minimal triangulation
}

// MaxAtomSize returns the node count of the largest atom (0 when there are
// none) — the quantity that bounds per-atom coloring cost, reported by the
// telemetry layer.
func (d Decomposition) MaxAtomSize() int {
	max := 0
	for _, a := range d.Atoms {
		if len(a.Nodes) > max {
			max = len(a.Nodes)
		}
	}
	return max
}

// Triangulation is the result of MCSM: a minimal elimination ordering and
// the fill edges whose addition to G yields a chordal graph H.
type Triangulation struct {
	// Order lists the vertices in elimination order: Order[0] is
	// eliminated first.
	Order []int
	// Fill contains the added edges (U < V).
	Fill []graph.Edge
}

// wheap is a max-heap of (weight, -id) so ties break toward the lowest id,
// keeping the whole pipeline deterministic.
type wItem struct {
	v, w int
}
type wheap []wItem

func (h wheap) Len() int { return len(h) }
func (h wheap) Less(i, j int) bool {
	if h[i].w != h[j].w {
		return h[i].w > h[j].w
	}
	return h[i].v < h[j].v
}
func (h wheap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *wheap) Push(x any)   { *h = append(*h, x.(wItem)) }
func (h *wheap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// MCSM runs the MCS-M algorithm on g, returning a minimal elimination
// ordering and the fill of the corresponding minimal triangulation. It runs
// on a dense snapshot of g (see mcsmDense); mcsmRef is the map-backed
// original, which produces bit-identical results.
func MCSM(g *graph.Graph) Triangulation {
	sc := arena.Get()
	defer sc.Release()
	return mcsmDense(graph.FromGraphScratch(g, sc), sc)
}

// mcsmRef is the original map-graph MCS-M implementation: the ordering step
// of the map decomposition (decomposeConnectedRef) and the differential-test
// baseline of mcsmDense.
func mcsmRef(g *graph.Graph) Triangulation {
	nodes := g.Nodes()
	n := len(nodes)
	weight := make(map[int]int, n)
	numbered := make(map[int]bool, n)
	for _, v := range nodes {
		weight[v] = 0
	}
	order := make([]int, n) // order[i] eliminated i-th; filled back to front
	var fill []graph.Edge

	// Lazy max-heap of candidate (vertex, weight) pairs; stale entries are
	// skipped on pop.
	h := &wheap{}
	for _, v := range nodes {
		heap.Push(h, wItem{v, 0})
	}

	for i := n - 1; i >= 0; i-- {
		// Pick the unnumbered vertex with maximum weight (lowest id on tie).
		var v int
		for {
			it := heap.Pop(h).(wItem)
			if !numbered[it.v] && weight[it.v] == it.w {
				v = it.v
				break
			}
		}
		order[i] = v
		numbered[v] = true

		// Bottleneck search: mw[u] = minimum over v→u paths through
		// unnumbered intermediates of the maximum intermediate weight
		// (-1 when u is a direct neighbor). u is reachable "for increment"
		// iff mw[u] < weight[u].
		mw := map[int]int{}
		type qi struct{ v, d int }
		var pq []qi
		push := func(u, d int) {
			if cur, ok := mw[u]; !ok || d < cur {
				mw[u] = d
				pq = append(pq, qi{u, d})
			}
		}
		for _, u := range g.Neighbors(v) {
			if !numbered[u] {
				push(u, -1)
			}
		}
		for len(pq) > 0 {
			// Extract min d (linear scan is fine: graphs here are small and
			// sparse; determinism matters more than asymptotics).
			best := 0
			for j := 1; j < len(pq); j++ {
				if pq[j].d < pq[best].d || (pq[j].d == pq[best].d && pq[j].v < pq[best].v) {
					best = j
				}
			}
			cur := pq[best]
			pq[best] = pq[len(pq)-1]
			pq = pq[:len(pq)-1]
			if cur.d > mw[cur.v] {
				continue // stale
			}
			// cur.v may act as an intermediate for its neighbors.
			through := cur.d
			if weight[cur.v] > through {
				through = weight[cur.v]
			}
			for _, x := range g.Neighbors(cur.v) {
				if !numbered[x] && x != v {
					push(x, through)
				}
			}
		}
		// Increment and add fill edges.
		var bumped []int
		for u, d := range mw {
			if d < weight[u] {
				bumped = append(bumped, u)
			}
		}
		sort.Ints(bumped)
		for _, u := range bumped {
			weight[u]++
			heap.Push(h, wItem{u, weight[u]})
			if !g.HasEdge(u, v) {
				a, b := u, v
				if a > b {
					a, b = b, a
				}
				fill = append(fill, graph.Edge{U: a, V: b, W: 1})
			}
		}
	}
	sort.Slice(fill, func(i, j int) bool {
		if fill[i].U != fill[j].U {
			return fill[i].U < fill[j].U
		}
		return fill[i].V < fill[j].V
	})
	return Triangulation{Order: order, Fill: fill}
}

// Decompose splits g into its atoms. The union of the atoms' vertex sets
// covers V(g), every edge of g appears in at least one atom, and the vertices
// of each clique minimal separator are shared between atoms. A disconnected
// graph is decomposed one connected component at a time. An empty graph
// yields no atoms.
//
// The per-component work runs on the dense graph core;
// DecomposeParallelRef is the map-backed original, which produces
// bit-identical results.
func Decompose(g *graph.Graph) Decomposition {
	return decomposeWith(g, decomposeConnectedDense)
}

func decomposeWith(g *graph.Graph, fn decomposeFunc) Decomposition {
	var d Decomposition
	sc := arena.Get()
	defer sc.Release()
	for _, comp := range g.ConnectedComponents() {
		fn(g.Induced(comp), &d, sc)
		sc.Reset()
	}
	return d
}

// decomposeFunc decomposes one connected graph into d, borrowing scratch
// from sc (which may be nil — the fresh-allocation Scratch). The caller
// owns sc and Resets it between components.
type decomposeFunc func(*graph.Graph, *Decomposition, *arena.Scratch)

// decomposeConnectedRef appends the atoms of the connected graph g to d
// using the map-backed graph throughout. It ignores the scratch — the
// reference implementation allocates freshly by design.
func decomposeConnectedRef(g *graph.Graph, d *Decomposition, _ *arena.Scratch) {
	tri := mcsmRef(g)
	d.Fill += len(tri.Fill)

	// H = G + fill.
	h := g.Clone()
	for _, e := range tri.Fill {
		h.AddEdge(e.U, e.V, 0)
	}

	// pos[v] = index of v in the elimination order.
	pos := make(map[int]int, len(tri.Order))
	for i, v := range tri.Order {
		pos[v] = i
	}

	gp := g.Clone() // G', shrinking as components split off
	for i, x := range tri.Order {
		if !gp.HasNode(x) {
			continue // already carved out with an earlier atom's component
		}
		// S = later neighbors of x in H that are still present in G'.
		var s []int
		for _, u := range h.Neighbors(x) {
			if pos[u] > i && gp.HasNode(u) {
				s = append(s, u)
			}
		}
		sort.Ints(s)
		if len(s) == 0 || !g.IsClique(s) {
			continue
		}
		// S is a clique in G; check that removing it separates x from the
		// rest of G'.
		comp := gp.ComponentContaining(x, s)
		if len(comp)+len(s) >= gp.NumNodes() {
			continue // not a proper split: C ∪ S is all of G'
		}
		// S must be a *minimal* separator: every separator vertex needs a
		// G'-neighbor inside the carved component C and another outside
		// C ∪ S. (madj sets of a minimal elimination ordering can be
		// cliques without being minimal separators — e.g. the madj {2,3}
		// of the outer vertex of a bowtie — and splitting on those emits
		// spurious sub-atoms.)
		if !minimalSeparator(gp, s, comp) {
			continue
		}
		atomNodes := append(append([]int{}, comp...), s...)
		sort.Ints(atomNodes)
		d.Atoms = append(d.Atoms, makeAtom(g, atomNodes))
		d.Separators = append(d.Separators, append([]int{}, s...))
		for _, c := range comp {
			gp.RemoveNode(c)
		}
	}
	if gp.NumNodes() > 0 {
		d.Atoms = append(d.Atoms, makeAtom(g, gp.Nodes()))
	}
}

func makeAtom(g *graph.Graph, nodes []int) Atom {
	return Atom{Nodes: nodes, Graph: g.Induced(nodes)}
}

// minimalSeparator reports whether the clique set s is a minimal separator
// of gp with respect to the component comp: every vertex of s must have a
// gp-neighbor inside comp and a gp-neighbor outside comp ∪ s.
func minimalSeparator(gp *graph.Graph, s, comp []int) bool {
	inComp := make(map[int]bool, len(comp))
	for _, c := range comp {
		inComp[c] = true
	}
	inSep := make(map[int]bool, len(s))
	for _, v := range s {
		inSep[v] = true
	}
	for _, v := range s {
		hasIn, hasOut := false, false
		for _, u := range gp.Neighbors(v) {
			switch {
			case inComp[u]:
				hasIn = true
			case !inSep[u]:
				hasOut = true
			}
		}
		if !hasIn || !hasOut {
			return false
		}
	}
	return true
}
