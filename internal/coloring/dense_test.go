package coloring

import (
	"math/rand"
	"reflect"
	"testing"

	"parmem/internal/graph"
)

func randomConflictGraph(r *rand.Rand, n int, p float64, maxW int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(i*3 + 1) // non-contiguous ids
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdgeWeight(i*3+1, j*3+1, 1+r.Intn(maxW))
			}
		}
	}
	return g
}

// TestGuptaSoffaDenseMatchesMap proves the dense urgency heuristic
// bit-identical to the map reference across random graphs, module counts,
// pick policies and precolorings: same assignment map and same removal
// order.
func TestGuptaSoffaDenseMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for iter := 0; iter < 200; iter++ {
		n := r.Intn(28)
		g := randomConflictGraph(r, n, r.Float64()*0.7, 4)
		k := 1 + r.Intn(6)
		pre := map[int]int{}
		if n > 0 && r.Intn(2) == 0 {
			for c := r.Intn(4); c > 0; c-- {
				pre[r.Intn(n)*3+1] = r.Intn(k)
			}
			// Precolored nodes must not make adjacent nodes share a module;
			// GuptaSoffa does not require that, so random precoloring is fine.
		}
		pick := LowestIndex
		if r.Intn(2) == 0 {
			pick = LeastLoaded
		}
		opt := Options{K: k, Precolored: pre, Pick: pick}
		want := GuptaSoffaMap(g, opt)
		got := GuptaSoffa(g, opt)
		if !reflect.DeepEqual(got.Assign, want.Assign) {
			t.Fatalf("iter %d (k=%d pick=%d pre=%v): assign %v, want %v\n%s",
				iter, k, pick, pre, got.Assign, want.Assign, g)
		}
		if len(got.Unassigned) != len(want.Unassigned) ||
			(len(want.Unassigned) > 0 && !reflect.DeepEqual(got.Unassigned, want.Unassigned)) {
			t.Fatalf("iter %d (k=%d pick=%d pre=%v): unassigned %v, want %v\n%s",
				iter, k, pick, pre, got.Unassigned, want.Unassigned, g)
		}
		// Random precoloring may clash by construction (GuptaSoffa honors it
		// verbatim); only unconstrained runs must be proper.
		if len(pre) == 0 {
			if err := CheckProper(g, got.Assign); err != nil {
				t.Fatalf("iter %d: improper coloring: %v", iter, err)
			}
		}
	}
}

// benchColoringGraph is a large synthetic conflict graph whose scale makes
// the per-iteration allocation differences between the two backends visible.
func benchColoringGraph() *graph.Graph {
	r := rand.New(rand.NewSource(21))
	return randomConflictGraph(r, 400, 0.06, 3)
}

func BenchmarkColoringDense(b *testing.B) {
	g := benchColoringGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := GuptaSoffa(g, Options{K: 8})
		if len(res.Assign) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkColoringMap(b *testing.B) {
	g := benchColoringGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := GuptaSoffaMap(g, Options{K: 8})
		if len(res.Assign) == 0 {
			b.Fatal("empty result")
		}
	}
}
