package main

import (
	"math/rand/v2"

	"parmem/internal/benchprog"
)

// Inputs are pure functions of (seed, stream, index): the same seed always
// yields byte-identical request streams, whichever client ends up sending
// which request.

// Stream tags keep the workloads' random sequences disjoint.
const (
	streamWarm uint64 = iota + 1
	streamCold
	streamEdit
	streamOrder
)

// streamRand returns the generator of item i of a seeded stream.
func streamRand(seed, stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<40|i))
}

// windowInstrs builds a random windowed instruction stream: instruction i
// reads 2..k distinct values from a window of consecutive ids centred on
// its share of the value range [1, nVals], so conflicts stay local as in a
// real schedule. No instruction is wider than k, so a conflict-free
// assignment always exists.
func windowInstrs(r *rand.Rand, nVals, nInstr, k, window int) [][]int {
	out := make([][]int, nInstr)
	for i := range out {
		lo := 1 + i*nVals/nInstr - window/2
		if lo < 1 {
			lo = 1
		}
		if lo+window > nVals+1 {
			lo = nVals + 1 - window
		}
		width := 2 + r.IntN(k-1)
		ops := make([]int, 0, width)
		for len(ops) < width {
			v := lo + r.IntN(window)
			if !contains(ops, v) {
				ops = append(ops, v)
			}
		}
		out[i] = ops
	}
	return out
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Shapes of the assign workloads' graphs.
const (
	warmPool   = 64
	warmVals   = 120
	warmInstrs = 80
	coldVals   = 300
	coldInstrs = 220
	assignK    = 5
	assignWin  = 12
)

// warmGraph returns graph i of the warm-assign pool.
func warmGraph(seed uint64, i int) [][]int {
	return windowInstrs(streamRand(seed, streamWarm, uint64(i)), warmVals, warmInstrs, assignK, assignWin)
}

// coldGraph returns request i of the cold-assign stream; every index is a
// structurally fresh graph.
func coldGraph(seed uint64, i int) [][]int {
	return windowInstrs(streamRand(seed, streamCold, uint64(i)), coldVals, coldInstrs, assignK, assignWin)
}

// Shape of the edit-session program: benchprog.ChainInstrs(editComps,
// editChain, editK), 1600 values in 8 chains.
const (
	editComps = 8
	editChain = 200
	editK     = 4
	editReach = 6
)

// editBase returns the edit-session starting program.
func editBase() [][]int { return benchprog.ChainInstrs(editComps, editChain, editK) }

// localEdit draws one single-operand local edit of the base program: one
// operand of one instruction moves by up to ±editReach within its own
// chain. It returns the instruction index and its replacement operand set;
// base is not modified.
func localEdit(r *rand.Rand, base [][]int) (int, []int) {
	for {
		i := r.IntN(len(base))
		ops := base[i]
		p := r.IntN(len(ops))
		lo := (ops[p]-1)/editChain*editChain + 1
		v := ops[p] + r.IntN(2*editReach+1) - editReach
		if v < lo || v >= lo+editChain || contains(ops, v) {
			continue
		}
		next := append([]int(nil), ops...)
		next[p] = v
		return i, next
	}
}

// compileSource is one compile-workload request.
type compileSource struct {
	name string
	src  string
	k    int
	spec *benchprog.Spec // nil for the synthetic programs
}

// compileSources returns the 28 compile requests — the six paper
// programs and Synthetic(1..8), each at K=4 and K=8 — in a seeded order.
func compileSources(seed uint64) []compileSource {
	var out []compileSource
	specs := benchprog.All()
	for _, k := range []int{4, 8} {
		for i := range specs {
			out = append(out, compileSource{name: specs[i].Name, src: specs[i].Source, k: k, spec: &specs[i]})
		}
		for u := 1; u <= 8; u++ {
			out = append(out, compileSource{name: "synthetic", src: benchprog.Synthetic(u), k: k})
		}
	}
	r := streamRand(seed, streamOrder, 0)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
