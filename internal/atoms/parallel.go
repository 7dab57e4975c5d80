package atoms

import (
	"sync"

	"parmem/internal/arena"
	"parmem/internal/graph"
)

// DecomposeParallel splits g into its atoms exactly like Decompose,
// fanning the per-connected-component decompositions across at most
// workers goroutines. Components are independent subproblems — each is
// decomposed into a private Decomposition against a read-only view of g —
// and the per-component results are merged in component order, so the
// output is bit-identical to Decompose's for every input.
func DecomposeParallel(g *graph.Graph, workers int) Decomposition {
	return decomposeParallelWith(g, workers, decomposeConnectedDense)
}

// DecomposeParallelRef is DecomposeParallel on the original map-graph
// implementation, retained as the differential-test and ablation baseline
// of the dense core. No production path calls it.
func DecomposeParallelRef(g *graph.Graph, workers int) Decomposition {
	return decomposeParallelWith(g, workers, decomposeConnectedRef)
}

func decomposeParallelWith(g *graph.Graph, workers int, fn decomposeFunc) Decomposition {
	comps := g.ConnectedComponents()
	if workers > len(comps) {
		workers = len(comps)
	}
	if workers <= 1 || len(comps) < 2 {
		return decomposeWith(g, fn)
	}

	parts := make([]Decomposition, len(comps))
	panics := make([]any, len(comps))
	idx := make(chan int)
	// One arena shard per worker for the whole fan-out: workers recycle
	// their private Scratch between components and never touch the global
	// pool mid-phase.
	shards := arena.GetShards(workers)
	defer shards.Release()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := shards.Worker(w)
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					fn(g.Induced(comps[i]), &parts[i], sc)
				}()
				sc.Reset()
			}
		}(w)
	}
	for i := range comps {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			// Re-raise on the caller's goroutine so the usual phase
			// boundary recovery applies.
			panic(r)
		}
	}

	var d Decomposition
	for _, p := range parts {
		d.Atoms = append(d.Atoms, p.Atoms...)
		d.Separators = append(d.Separators, p.Separators...)
		d.Fill += p.Fill
	}
	return d
}
