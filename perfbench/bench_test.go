package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"parmem/internal/alloccache"
	"parmem/internal/server"
)

// requestStream marshals the first requests each workload sends for seed.
func requestStream(t *testing.T, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	put := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmPool; i++ {
		put(server.AssignRequest{Instrs: warmGraph(seed, i), K: assignK})
	}
	for i := 0; i < 16; i++ {
		put(server.AssignRequest{Instrs: coldGraph(seed, i), K: assignK})
	}
	for _, s := range newEditSession(seed, 2).sessions {
		for i := 0; i < 16; i++ {
			ch := s.nextChange()
			s.edited = ch[len(ch)-1].Index
			put(server.DeltaRequest{Base: s.name, Hold: s.name, Changed: ch})
		}
	}
	for _, src := range compileSources(seed) {
		put(server.CompileRequest{Src: src.src, K: src.k})
	}
	return buf.Bytes()
}

func TestRequestStreamsFollowTheSeed(t *testing.T) {
	a, b := requestStream(t, 1), requestStream(t, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 1 produced two different request streams")
	}
	if bytes.Equal(a, requestStream(t, 2)) {
		t.Fatal("seeds 1 and 2 produced the same request stream")
	}
	// Each workload's part of the stream moves with the seed on its own.
	if equalGraphs(warmGraph(1, 0), warmGraph(2, 0)) || equalGraphs(coldGraph(1, 0), coldGraph(2, 0)) {
		t.Fatal("assign graphs do not depend on the seed")
	}
}

func equalGraphs(a, b [][]int) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return bytes.Equal(x, y)
}

func TestGeneratedGraphsFitK(t *testing.T) {
	for i := 0; i < 8; i++ {
		for _, g := range [][][]int{warmGraph(3, i), coldGraph(3, i)} {
			for _, ops := range g {
				if len(ops) < 2 || len(ops) > assignK {
					t.Fatalf("instruction %v has width outside [2,%d]", ops, assignK)
				}
			}
		}
	}
	s := newEditSession(3, 1).sessions[0]
	for i := 0; i < 200; i++ {
		ch := s.nextChange()
		if len(ch) > 2 {
			t.Fatalf("delta changes %d instructions", len(ch))
		}
		last := ch[len(ch)-1]
		if len(last.Ops) != len(s.base[last.Index]) {
			t.Fatalf("edit changed the width of instruction %d", last.Index)
		}
		moved := 0
		for p, v := range last.Ops {
			if old := s.base[last.Index][p]; v != old {
				moved++
				if (v-1)/editChain != (old-1)/editChain || v-old > editReach || old-v > editReach {
					t.Fatalf("edit moved %d to %d: not local", old, v)
				}
			}
		}
		if moved != 1 {
			t.Fatalf("edit moved %d operands, want 1", moved)
		}
		s.edited = last.Index
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	inf := math.Inf(1)
	withFailures := []float64{1, 2, 3, 4, 5, 6, 7, 8, inf, inf}
	if got := percentile(withFailures, 0.8); got != 8 {
		t.Errorf("p80 with two failures = %v, want 8", got)
	}
	if got := percentile(withFailures, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with two failures in ten = %v, want +Inf", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestPhaseArithmetic(t *testing.T) {
	inf := math.Inf(1)
	ph := phase{
		lat:       [][]float64{{1, 2, inf}, {3, 4, 5, inf, 6}},
		attempted: 8,
		ok:        6,
		wall:      2 * time.Second,
		cpu:       400 * time.Millisecond,
	}
	if got := ph.okFrac(); got != 0.75 {
		t.Errorf("ok_frac = %v, want 0.75", got)
	}
	if got := ph.throughput(); got != 3 {
		t.Errorf("throughput = %v, want 3 (OK responses per second)", got)
	}
	if got := ph.cpuPerReq(); got != 50 {
		t.Errorf("cpu per request = %v ms, want 50 (over attempted)", got)
	}
	all := ph.all()
	if len(all) != 8 {
		t.Fatalf("all() has %d latencies, want 8", len(all))
	}
	if got := percentile(all, 0.75); got != 6 {
		t.Errorf("p75 = %v, want 6", got)
	}
	if got := percentile(all, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf: a quarter of the requests failed", got)
	}
}

func TestHitFrac(t *testing.T) {
	before := map[string]alloccache.LevelStats{"assign": {Hits: 5, Misses: 5}}
	after := map[string]alloccache.LevelStats{"assign": {Hits: 8, Misses: 6}, "dup": {Hits: 1}}
	d := levelDelta(before, after)
	if f, ok := hitFrac(d, "assign"); !ok || f != 0.75 {
		t.Errorf("assign hit fraction = %v, %v; want 0.75, true", f, ok)
	}
	if _, ok := hitFrac(d, "comp"); ok {
		t.Error("a level without lookups reported a hit fraction")
	}
}

// TestQualityMetricsRepeat runs the warm-assign and compile workloads
// twice through a real fleet: copies_per_value must repeat exactly, and so
// must the simulator's cycle total.
func TestQualityMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("boots fleets")
	}
	ctx := context.Background()
	for _, name := range []string{"warm-assign", "compile"} {
		wi, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		var copies []float64
		for run := 0; run < 2; run++ {
			res, err := runMeasured(ctx, wi, 5, 200*time.Millisecond)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			copies = append(copies, res.Metrics["copies_per_value"].Value)
		}
		if copies[0] != copies[1] || copies[0] < 1 {
			t.Errorf("%s copies_per_value %v then %v", name, copies[0], copies[1])
		}
	}
	var cycles []int64
	for run := 0; run < 2; run++ {
		w := newCompile(5, 1)
		if err := w.check(ctx); err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, w.simCycles)
	}
	if cycles[0] != cycles[1] || cycles[0] == 0 {
		t.Errorf("sim_cycles %d then %d", cycles[0], cycles[1])
	}
}
