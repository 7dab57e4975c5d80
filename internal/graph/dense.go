package graph

import (
	"slices"
	"sort"

	"parmem/internal/arena"
)

// Dense is a frozen, cache-friendly snapshot of a Graph, built once and then
// read by the hot phases (MCS-M ordering, urgency coloring, clique checks).
//
// Vertices are remapped onto the dense index range [0,n) in ascending
// original-id order, so index order and id order agree and every tie-break
// rule expressed as "lowest id first" in the map-backed algorithms is
// "lowest index first" here — the dense and map implementations are
// bit-identical by construction.
//
// Adjacency is CSR (compressed sparse row): one flat neighbor array plus
// per-vertex offsets, neighbors pre-sorted ascending at build time.
// Iterating a neighborhood is a contiguous slice scan with zero allocation,
// where Graph.Neighbors allocates and re-sorts on every call; HasEdgeIdx is
// a binary search in the row of the smaller-degree endpoint. Edge weights
// ride in a flat []int32 parallel to the neighbor array, and degrees are
// offset differences — no map lookups anywhere on the read path.
type Dense struct {
	ids []int         // index -> original id, ascending
	idx map[int]int32 // original id -> index

	off []int32 // CSR offsets; row i is nbr[off[i]:off[i+1]]
	nbr []int32 // neighbor indices, sorted ascending within each row
	wt  []int32 // edge weight parallel to nbr

	numEdges int
}

// FromGraph builds the dense snapshot of g. Later mutations of g are not
// reflected; callers freeze the graph first (every compiler phase does — the
// conflict graph never changes after construction).
func FromGraph(g *Graph) *Dense {
	return FromGraphScratch(g, nil)
}

// FromGraphScratch is FromGraph with the backing arrays (ids, index map,
// CSR offsets/neighbors/weights) borrowed from sc. The returned Dense is
// only valid until sc is Reset or Released and must not escape that scope.
// A nil sc allocates fresh storage, identical to FromGraph.
func FromGraphScratch(g *Graph, sc *arena.Scratch) *Dense {
	n := len(g.adj)
	d := &Dense{
		ids: sc.Ints(n)[:0],
		idx: sc.IntInt32Map(n),
		off: sc.Int32s(n + 1),
	}
	for v := range g.adj {
		d.ids = append(d.ids, v)
	}
	sort.Ints(d.ids)
	for i, v := range d.ids {
		d.idx[v] = int32(i)
	}

	total := 0
	for i, v := range d.ids {
		deg := len(g.adj[v])
		total += deg
		d.off[i+1] = d.off[i] + int32(deg)
	}
	d.nbr = sc.Int32s(total)
	d.wt = sc.Int32s(total)
	d.numEdges = total / 2

	for i, v := range d.ids {
		row := d.nbr[d.off[i]:d.off[i]:d.off[i+1]]
		for u := range g.adj[v] {
			row = append(row, d.idx[u])
		}
		slices.Sort(row)
		for j, u := range row {
			d.wt[int(d.off[i])+j] = int32(g.adj[v][d.ids[u]])
		}
	}
	return d
}

// N returns the number of vertices.
func (d *Dense) N() int { return len(d.ids) }

// NumEdges returns the number of undirected edges.
func (d *Dense) NumEdges() int { return d.numEdges }

// ID returns the original vertex id of dense index i.
func (d *Dense) ID(i int32) int { return d.ids[i] }

// IDs returns the original vertex ids in ascending order. The slice is the
// Dense's own storage; callers must not modify it.
func (d *Dense) IDs() []int { return d.ids }

// Index returns the dense index of original id v, or -1 if v is absent.
func (d *Dense) Index(v int) int32 {
	if i, ok := d.idx[v]; ok {
		return i
	}
	return -1
}

// Deg returns the degree of dense index i.
func (d *Dense) Deg(i int32) int { return int(d.off[i+1] - d.off[i]) }

// Row returns the neighbor indices of dense index i, sorted ascending. The
// slice aliases the CSR storage; callers must not modify it.
func (d *Dense) Row(i int32) []int32 { return d.nbr[d.off[i]:d.off[i+1]] }

// WeightRow returns the edge weights parallel to Row(i). The slice aliases
// the CSR storage; callers must not modify it.
func (d *Dense) WeightRow(i int32) []int32 { return d.wt[d.off[i]:d.off[i+1]] }

// HasEdgeIdx reports whether the undirected edge {u,v} exists, by dense
// index: a binary search in the smaller-degree endpoint's CSR row.
func (d *Dense) HasEdgeIdx(u, v int32) bool {
	if u == v {
		return false
	}
	if d.Deg(v) < d.Deg(u) {
		u, v = v, u
	}
	return d.searchRow(u, v) >= 0
}

// RowAndNotInto appends to dst, in ascending order, every neighbor u of
// row i whose mask bit is NOT set, and returns the extended slice. mask is
// a flat bitset of BitsetWords(N()) words.
func (d *Dense) RowAndNotInto(i int32, mask []uint64, dst []int32) []int32 {
	for _, u := range d.Row(i) {
		if !TestBit(mask, u) {
			dst = append(dst, u)
		}
	}
	return dst
}

// RowAndInto appends to dst, in ascending order, every neighbor u of row i
// whose mask bit IS set, and returns the extended slice.
func (d *Dense) RowAndInto(i int32, mask []uint64, dst []int32) []int32 {
	for _, u := range d.Row(i) {
		if TestBit(mask, u) {
			dst = append(dst, u)
		}
	}
	return dst
}

// WeightIdx returns the weight of edge {u,v} by dense index, or 0 if the
// edge is absent.
func (d *Dense) WeightIdx(u, v int32) int32 {
	if u == v {
		return 0
	}
	if j := d.searchRow(u, v); j >= 0 {
		return d.wt[j]
	}
	return 0
}

// searchRow binary-searches row u for v, returning the flat CSR position or
// -1.
func (d *Dense) searchRow(u, v int32) int {
	lo, hi := int(d.off[u]), int(d.off[u+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case d.nbr[mid] < v:
			lo = mid + 1
		case d.nbr[mid] > v:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// HasNode reports whether original id v is a vertex.
func (d *Dense) HasNode(v int) bool { _, ok := d.idx[v]; return ok }

// HasEdge reports whether the undirected edge {u,v} exists, by original id.
func (d *Dense) HasEdge(u, v int) bool {
	ui, ok := d.idx[u]
	if !ok {
		return false
	}
	vi, ok := d.idx[v]
	if !ok {
		return false
	}
	return d.HasEdgeIdx(ui, vi)
}

// Weight returns the weight of edge {u,v} by original id, or 0 if absent.
func (d *Dense) Weight(u, v int) int {
	ui, ok := d.idx[u]
	if !ok {
		return 0
	}
	vi, ok := d.idx[v]
	if !ok {
		return 0
	}
	return int(d.WeightIdx(ui, vi))
}

// Degree returns the degree of original id v, or 0 if absent.
func (d *Dense) Degree(v int) int {
	i, ok := d.idx[v]
	if !ok {
		return 0
	}
	return d.Deg(i)
}

// IsCliqueIDs reports whether every pair of the given original ids is
// adjacent. The empty set and singletons are cliques. Ids absent from the
// graph make the set a non-clique (they have no incident edges).
func (d *Dense) IsCliqueIDs(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !d.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// Edges returns all edges as original-id triples sorted by (U,V), exactly
// like Graph.Edges.
func (d *Dense) Edges() []Edge {
	out := make([]Edge, 0, d.numEdges)
	for i := 0; i < len(d.ids); i++ {
		row, wts := d.Row(int32(i)), d.WeightRow(int32(i))
		for j, u := range row {
			if int32(i) < u {
				out = append(out, Edge{U: d.ids[i], V: d.ids[u], W: int(wts[j])})
			}
		}
	}
	return out
}
