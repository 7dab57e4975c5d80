package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// equalDense asserts every internal array of got matches a cold FromGraph
// build — not just observable behavior, so the patched snapshot is
// structurally indistinguishable from a rebuild (the property the canonical
// hash machinery relies on).
func equalDense(t *testing.T, got, want *Dense) {
	t.Helper()
	if !reflect.DeepEqual(got.ids, want.ids) {
		t.Fatalf("ids: got %v want %v", got.ids, want.ids)
	}
	if !reflect.DeepEqual(got.off, want.off) {
		t.Fatalf("off mismatch")
	}
	if !reflect.DeepEqual(got.nbr, want.nbr) {
		t.Fatalf("nbr: got %v want %v", got.nbr, want.nbr)
	}
	if !reflect.DeepEqual(got.wt, want.wt) {
		t.Fatalf("wt: got %v want %v", got.wt, want.wt)
	}
	if got.numEdges != want.numEdges {
		t.Fatalf("numEdges: got %d want %d", got.numEdges, want.numEdges)
	}
}

// TestDensePatchDifferential drives random edit sequences through Patch and
// asserts each step is bit-identical to rebuilding the mutated map graph
// from scratch, across node additions, removals, weight increments and edge
// deletions.
func TestDensePatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	for trial := 0; trial < 40; trial++ {
		g := New()
		n := 3 + rng.Intn(30)
		for v := 0; v < n; v++ {
			if rng.Intn(4) != 0 {
				g.AddNode(v * 3) // sparse, non-contiguous ids
			}
		}
		nodes := g.Nodes()
		for e := 0; e < 2*n; e++ {
			if len(nodes) < 2 {
				break
			}
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			if u != v {
				g.AddEdgeWeight(u, v, 1+rng.Intn(3))
			}
		}
		d := FromGraph(g)
		for step := 0; step < 8; step++ {
			var deltas []WeightDelta
			var add, dropids []int
			nodes = g.Nodes()
			switch rng.Intn(4) {
			case 0: // add a node with some edges
				nv := 1000 + trial*100 + step
				g.AddNode(nv)
				add = append(add, nv)
				for _, u := range nodes {
					if rng.Intn(3) == 0 {
						w := 1 + rng.Intn(3)
						g.AddEdgeWeight(nv, u, w)
						deltas = append(deltas, WeightDelta{U: nv, V: u, DW: int32(w)})
					}
				}
			case 1: // drop a node and all incident edges
				if len(nodes) == 0 {
					continue
				}
				v := nodes[rng.Intn(len(nodes))]
				for _, u := range g.Neighbors(v) {
					deltas = append(deltas, WeightDelta{U: v, V: u, DW: int32(-g.Weight(v, u))})
				}
				g.RemoveNode(v)
				dropids = append(dropids, v)
			case 2: // bump weights of a few random pairs
				for k := 0; k < 3 && len(nodes) >= 2; k++ {
					u := nodes[rng.Intn(len(nodes))]
					v := nodes[rng.Intn(len(nodes))]
					if u == v {
						continue
					}
					g.AddEdgeWeight(u, v, 2)
					deltas = append(deltas, WeightDelta{U: u, V: v, DW: 2})
				}
			case 3: // delete a random existing edge outright
				edges := g.Edges()
				if len(edges) == 0 {
					continue
				}
				e := edges[rng.Intn(len(edges))]
				deltas = append(deltas, WeightDelta{U: e.U, V: e.V, DW: int32(-e.W)})
				g.RemoveEdge(e.U, e.V)
			}
			d = d.Patch(deltas, add, dropids)
			equalDense(t, d, FromGraph(g))
		}
	}
}

// TestDenseInducedGraph checks InducedGraph against Graph.Induced on the
// source graph.
func TestDenseInducedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := New()
		n := 4 + rng.Intn(20)
		for v := 0; v < n; v++ {
			g.AddNode(v)
		}
		for e := 0; e < 3*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdgeWeight(u, v, 1+rng.Intn(2))
			}
		}
		d := FromGraph(g)
		var keep []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				keep = append(keep, v)
			}
		}
		got := d.InducedGraph(keep)
		want := g.Induced(keep)
		if !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("induced edges: got %v want %v", got.Edges(), want.Edges())
		}
		gn, wn := got.Nodes(), want.Nodes()
		if !reflect.DeepEqual(gn, wn) {
			t.Fatalf("induced nodes: got %v want %v", gn, wn)
		}
	}
}
