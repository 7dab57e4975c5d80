package graph

import (
	"slices"
	"sort"
)

// This file implements delta patching of the frozen Dense snapshot for the
// incremental recompilation path. A program edit perturbs O(delta) conflict
// edges; Patch rebuilds only the touched CSR rows (copying the untouched
// spans wholesale when the vertex set is stable), so the result is
// structurally indistinguishable from a cold FromGraph of the edited
// conflict graph — the canonical hash machinery keyed on (degree,index)
// ranks and sorted relabeled edges therefore sees identical input either
// way.

// WeightDelta is one undirected edge-weight adjustment by original vertex
// id: the weight of {U,V} changes by DW. A resulting weight <= 0 removes
// the edge. Conflict-graph weights are co-occurrence counts, so instruction
// removals decrement and additions increment symmetric pair counts.
type WeightDelta struct {
	U, V int
	DW   int32
}

// Patch returns a fresh Dense equal to rebuilding the edited graph from
// scratch: addNodes join the vertex set, dropNodes leave it, and every
// WeightDelta adjusts one edge weight (final weight <= 0 deletes the edge).
// The receiver is never mutated — prior results holding it stay valid for
// concurrent reads.
//
// Callers must drop every edge incident to a dropped node via deltas (the
// conflict-graph refcount arithmetic guarantees this: a value disappears
// only when no instruction uses it, and each using instruction's removal
// decrements all its pair counts); any surviving reference to an absent
// vertex is skipped defensively. Deltas naming vertices outside the new
// vertex set are ignored.
func (d *Dense) Patch(deltas []WeightDelta, addNodes, dropNodes []int) *Dense {
	// New vertex set, ascending.
	drop := make(map[int]bool, len(dropNodes))
	for _, v := range dropNodes {
		drop[v] = true
	}
	ids := make([]int, 0, len(d.ids)+len(addNodes))
	for _, v := range d.ids {
		if !drop[v] {
			ids = append(ids, v)
		}
	}
	for _, v := range addNodes {
		if _, ok := d.idx[v]; !ok && !drop[v] {
			ids = append(ids, v)
		}
	}
	sort.Ints(ids)
	ids = slices.Compact(ids)

	n := len(ids)
	nd := &Dense{
		ids: ids,
		idx: make(map[int]int32, n),
		off: make([]int32, n+1),
	}
	for i, v := range ids {
		nd.idx[v] = int32(i)
	}

	// Group deltas per endpoint id, both directions, keeping only vertices
	// present in the new set.
	type rowDelta struct {
		other int // neighbor original id
		dw    int32
	}
	rowDeltas := make(map[int][]rowDelta, 2*len(deltas))
	for _, wd := range deltas {
		if wd.U == wd.V {
			continue
		}
		if _, ok := nd.idx[wd.U]; !ok {
			continue
		}
		if _, ok := nd.idx[wd.V]; !ok {
			continue
		}
		rowDeltas[wd.U] = append(rowDeltas[wd.U], rowDelta{wd.V, wd.DW})
		rowDeltas[wd.V] = append(rowDeltas[wd.V], rowDelta{wd.U, wd.DW})
	}

	// A stable vertex set keeps every dense index fixed, so untouched CSR
	// rows are verbatim copies; otherwise indices shift and every row is
	// translated through the id space.
	sameIDs := n == len(d.ids)
	if sameIDs {
		for i, v := range ids {
			if d.ids[i] != v {
				sameIDs = false
				break
			}
		}
	}

	// First pass: new degrees. Second pass: fill rows.
	type mergedRow struct {
		nbr []int32
		wt  []int32
	}
	merged := make(map[int32]mergedRow, len(rowDeltas))
	mergeRow := func(i int32) mergedRow {
		v := ids[i]
		dl := rowDeltas[v]
		sort.Slice(dl, func(a, b int) bool { return dl[a].other < dl[b].other })
		// Coalesce repeated deltas against the same neighbor.
		cl := dl[:0]
		for _, e := range dl {
			if len(cl) > 0 && cl[len(cl)-1].other == e.other {
				cl[len(cl)-1].dw += e.dw
			} else {
				cl = append(cl, e)
			}
		}
		var oldRow, oldWt []int32
		if oi, ok := d.idx[v]; ok {
			oldRow, oldWt = d.Row(oi), d.WeightRow(oi)
		}
		row := mergedRow{}
		j := 0
		emit := func(u int32, w int32) {
			if w > 0 {
				row.nbr = append(row.nbr, u)
				row.wt = append(row.wt, w)
			}
		}
		for k, oi := range oldRow {
			uid := d.ids[oi]
			ui, ok := nd.idx[uid]
			if !ok {
				continue // neighbor dropped
			}
			w := oldWt[k]
			for j < len(cl) && cl[j].other < uid {
				emit(nd.idx[cl[j].other], cl[j].dw)
				j++
			}
			if j < len(cl) && cl[j].other == uid {
				w += cl[j].dw
				j++
			}
			emit(ui, w)
		}
		for ; j < len(cl); j++ {
			emit(nd.idx[cl[j].other], cl[j].dw)
		}
		// Both walks emit in ascending ID order and the id→index remap is
		// monotone, so indices are already ascending; the sort is a no-op
		// pass kept as a structural guard.
		sortRowPair(row.nbr, row.wt)
		return row
	}

	total := 0
	for i := 0; i < n; i++ {
		v := ids[i]
		_, touched := rowDeltas[v]
		oi, existed := d.idx[v]
		if sameIDs && !touched && existed {
			total += d.Deg(oi)
		} else {
			r := mergeRow(int32(i))
			merged[int32(i)] = r
			total += len(r.nbr)
		}
		nd.off[i+1] = int32(total)
	}
	nd.nbr = make([]int32, total)
	nd.wt = make([]int32, total)
	nd.numEdges = total / 2

	for i := 0; i < n; i++ {
		dst := nd.nbr[nd.off[i]:nd.off[i+1]]
		dwt := nd.wt[nd.off[i]:nd.off[i+1]]
		if r, ok := merged[int32(i)]; ok {
			copy(dst, r.nbr)
			copy(dwt, r.wt)
			continue
		}
		oi := d.idx[ids[i]]
		copy(dst, d.Row(oi))
		copy(dwt, d.WeightRow(oi))
	}
	return nd
}

// sortRowPair sorts nbr ascending, carrying wt along.
func sortRowPair(nbr, wt []int32) {
	if len(nbr) < 2 {
		return
	}
	sort.Sort(&rowPair{nbr, wt})
}

type rowPair struct{ nbr, wt []int32 }

func (p *rowPair) Len() int           { return len(p.nbr) }
func (p *rowPair) Less(i, j int) bool { return p.nbr[i] < p.nbr[j] }
func (p *rowPair) Swap(i, j int) {
	p.nbr[i], p.nbr[j] = p.nbr[j], p.nbr[i]
	p.wt[i], p.wt[j] = p.wt[j], p.wt[i]
}

// InducedGraph extracts the subgraph on the given original ids as a fresh
// map-backed Graph: the dirty components of the incremental engine are
// carved out of the patched snapshot with it and re-enter the normal
// decompose/color pipeline. Ids absent from the snapshot become isolated
// vertices (matching Graph.Induced's treatment of unknown ids is moot —
// the engine only passes ids read back from the snapshot).
func (d *Dense) InducedGraph(ids []int) *Graph {
	g := New()
	in := make(map[int32]bool, len(ids))
	for _, v := range ids {
		g.AddNode(v)
		if i, ok := d.idx[v]; ok {
			in[i] = true
		}
	}
	for _, v := range ids {
		i, ok := d.idx[v]
		if !ok {
			continue
		}
		row, wts := d.Row(i), d.WeightRow(i)
		for j, u := range row {
			if u > i && in[u] {
				g.AddEdgeWeight(v, d.ids[u], int(wts[j]))
			}
		}
	}
	return g
}
