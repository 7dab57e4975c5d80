// Command parmem-tables regenerates the paper's evaluation: Table 1
// (duplication of data under STOR1/STOR2/STOR3), Table 2 (memory conflicts
// due to array accesses at k=8 and k=4), the overall speed-up report, and
// the worked examples of Figs. 1, 3 and 8.
//
// Usage:
//
//	parmem-tables                  print everything
//	parmem-tables -table 1         only Table 1
//	parmem-tables -table 2         only Table 2
//	parmem-tables -speedup         only the speed-up report
//	parmem-tables -figures         only the worked figures
//	parmem-tables -batch 'x/*.mpl' Table-1-style rows for external files
//
// -batch compiles every MPL file matching the glob through the batch
// compiler (shared worker pool, budget and cache) and prints one
// allocation row per file instead of the built-in suite. -cache-dir
// persists the suite's allocation cache on disk, so regenerating the
// tables a second time serves every assignment from the cache.
//
// -timeout bounds the whole regeneration with a context deadline.
// -cpuprofile and -memprofile write runtime/pprof profiles of the sweep;
// -trace FILE writes a Chrome trace_event file of every compilation,
// -metrics dumps the engine metrics to stderr on exit, and -telemetry-addr
// serves /metrics, /debug/vars and /debug/pprof while the sweep runs
// (-telemetry-linger keeps the endpoint up afterwards).
// Exit codes: 0 success, 1 failure (any file, in batch mode), 4 canceled
// (timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"parmem"
	"parmem/internal/assign"
	"parmem/internal/conflict"
	"parmem/internal/profiling"
	"parmem/internal/telemetrycli"
)

// Exit codes. 2 is reserved (flag parse errors use it), 3 means a
// budget-degraded run elsewhere in the suite (parmemc).
const (
	exitFailure  = 1
	exitCanceled = 4
)

func main() {
	var (
		table      = flag.Int("table", 0, "print only this table (1 or 2)")
		speedup    = flag.Bool("speedup", false, "print only the speed-up report")
		figures    = flag.Bool("figures", false, "print only the worked figures")
		sweep      = flag.String("sweep", "", "width-sweep this benchmark across k = 2..16")
		batchGlob  = flag.String("batch", "", "compile MPL files matching this glob as one batch")
		k          = flag.Int("k", 8, "memory modules for Table 1 and speed-ups")
		timeout    = flag.Duration("timeout", 0, "wall-clock limit for the whole run (0 disables)")
		workers    = flag.Int("workers", 0, "assignment worker pool size (0 = one per CPU, 1 = sequential)")
		useCache   = flag.Bool("cache", true, "share an allocation cache across the suite's recompilations")
		cacheDir   = flag.String("cache-dir", "", "persist the allocation cache here; later invocations reuse earlier results")
		cacheStats = flag.Bool("cache-stats", false, "print allocation-cache hit/miss counters at the end")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	tcfg := telemetrycli.Flags(flag.CommandLine)
	flag.Parse()

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stop()

	rec, stopTel, err := tcfg.Start()
	if err != nil {
		fatal(err)
	}
	stopTelemetry = stopTel
	defer stopTel()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// One cache serves every driver call below: the drivers recompile the
	// same six benchmark programs over and over (Table 1 alone compiles
	// each under three strategies), which is exactly the workload the
	// allocation cache exists for.
	opts := []parmem.ExperimentOption{parmem.WithWorkers(*workers), parmem.WithTelemetry(rec)}
	var alcache *parmem.AllocCache
	var store parmem.CacheStore
	switch {
	case *cacheDir != "":
		store, err = parmem.OpenCacheStore(parmem.CacheConfig{DiskPath: *cacheDir})
		if err != nil {
			fatal(err)
		}
		closeStore = func() { store.Close() }
		defer closeStore()
		alcache = store.Cache()
		opts = append(opts, parmem.WithCacheStore(store))
	case *useCache:
		alcache = parmem.NewAllocCache(0)
		opts = append(opts, parmem.WithAllocCache(alcache))
	}

	if *batchGlob != "" {
		printBatch(ctx, *batchGlob, *k, *workers, store, alcache, rec)
		if *cacheStats && alcache != nil {
			printCacheStats(alcache)
		}
		return
	}
	if *sweep != "" {
		rows, err := parmem.WidthSweep(ctx, *sweep, []int{2, 4, 8, 16}, opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Width sweep (reconfigurable LIW: modules = units)\n\n")
		fmt.Print(parmem.FormatWidthSweep(rows))
		return
	}
	all := *table == 0 && !*speedup && !*figures
	if all || *table == 1 {
		printTable1(ctx, *k, opts)
	}
	if all || *table == 2 {
		printTable2(ctx, opts)
	}
	if all || *speedup {
		printSpeedups(ctx, *k, opts)
	}
	if all || *figures {
		printFigures()
	}
	if *cacheStats && alcache != nil {
		printCacheStats(alcache)
	}
}

// printCacheStats prints the aggregate counters plus the per-memo-level
// breakdown (whole assignments, atom colorings).
func printCacheStats(c *parmem.AllocCache) {
	st := c.Stats()
	fmt.Printf("allocation cache: %d hits, %d misses, %d entries\n", st.Hits, st.Misses, st.Entries)
	for _, lv := range []string{"assign", "atomcolor"} {
		if ls, ok := st.Levels[lv]; ok {
			fmt.Printf("  %-10s %d hits, %d misses\n", lv, ls.Hits, ls.Misses)
		}
	}
}

// printBatch compiles every file matching the glob through the batch
// compiler and prints a Table-1-style allocation row per file.
func printBatch(ctx context.Context, pattern string, k, workers int, store parmem.CacheStore, cache *parmem.AllocCache, rec *parmem.Recorder) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		fatal(err)
	}
	if len(files) == 0 {
		fatal(fmt.Errorf("no files match %q", pattern))
	}
	sort.Strings(files)
	srcs := make([]string, len(files))
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		srcs[i] = string(b)
	}
	results := parmem.CompileBatch(ctx, srcs, parmem.Options{Modules: k, Workers: workers, Store: store, Cache: cache, Telemetry: rec})
	fmt.Printf("Batch allocation (k=%d, %d files)\n\n", k, len(files))
	fmt.Printf("%-24s %8s %8s %8s %6s\n", "file", "single", "multi", "copies", "words")
	failed := false
	for i, r := range results {
		if r.Err != nil {
			if errors.Is(r.Err, parmem.ErrCanceled) {
				fatal(r.Err)
			}
			failed = true
			fmt.Printf("%-24s error: %v\n", filepath.Base(files[i]), r.Err)
			continue
		}
		al := r.Program.Alloc
		fmt.Printf("%-24s %8d %8d %8d %6d\n", filepath.Base(files[i]),
			al.SingleCopy, al.MultiCopy, al.TotalCopies, len(r.Program.Sched.Words))
	}
	if failed {
		closeStore()
		stopProfiles()
		stopTelemetry()
		os.Exit(exitFailure)
	}
}

func printTable1(ctx context.Context, k int, opts []parmem.ExperimentOption) {
	rows, err := parmem.Table1(ctx, k, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Table 1. Duplication of Data (k=%d)\n", k)
	fmt.Printf("(paper, k=8: STOR1 almost no duplication; STOR2 worst; STOR3 between)\n\n")
	fmt.Print(parmem.FormatTable1(rows))
	fmt.Println()
}

func printTable2(ctx context.Context, opts []parmem.ExperimentOption) {
	ks := []int{8, 4}
	rows, err := parmem.Table2(ctx, ks, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Table 2. Memory Conflicts due to Array Accesses")
	fmt.Println("(paper: t_ave/t_min 1.02-1.20, t_max/t_min 1.09-1.38; meas = simulated interleaved layout)")
	fmt.Println()
	fmt.Print(parmem.FormatTable2(rows, ks))
	fmt.Println()
}

func printSpeedups(ctx context.Context, k int, opts []parmem.ExperimentOption) {
	rows, err := parmem.Speedups(ctx, k, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Overall speed-up over sequential execution (k=%d)\n", k)
	fmt.Println("(paper: 64%-300% overall speed-up on the RLIW system)")
	fmt.Println()
	fmt.Print(parmem.FormatSpeedups(rows))
	fmt.Println()
}

// printFigures reruns the paper's worked examples through the real
// pipeline.
func printFigures() {
	fmt.Println("Worked examples (paper Figs. 1, 3, 8)")
	fmt.Println()

	show := func(name string, instrs []conflict.Instruction, k int) {
		p := assign.Program{Instrs: instrs}
		al, err := assign.Assign(p, assign.Options{K: k})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s (k=%d):\n", name, k)
		for v := 1; v <= maxValue(instrs); v++ {
			set, ok := al.Copies[v]
			if !ok {
				continue
			}
			marks := ""
			for m := 0; m < k; m++ {
				if set.Has(m) {
					marks += "x"
				} else {
					marks += "-"
				}
			}
			fmt.Printf("  V%d %s\n", v, marks)
		}
		fmt.Printf("  values: %d single-copy, %d replicated; %d total copies\n\n",
			al.SingleCopy, al.MultiCopy, al.TotalCopies)
	}

	show("Fig. 1 — conflict-free assignment exists",
		[]conflict.Instruction{{1, 2, 4}, {2, 3, 5}, {2, 3, 4}}, 3)

	show("Fig. 1 + {V2 V4 V5} — one value must be replicated",
		[]conflict.Instruction{{1, 2, 4}, {2, 3, 5}, {2, 3, 4}, {2, 4, 5}}, 3)

	show("Fig. 3 — K5 conflict graph, two values replicated",
		[]conflict.Instruction{{1, 2, 3}, {2, 3, 4}, {1, 3, 4}, {1, 3, 5}, {2, 3, 5}, {1, 4, 5}}, 3)

	show("Fig. 8 — placement decides the copy count of V4",
		[]conflict.Instruction{{1, 2, 3, 5}, {4, 2, 3, 5}, {1, 2, 3, 4}, {4, 2, 1, 5}}, 4)
}

func maxValue(instrs []conflict.Instruction) int {
	max := 0
	for _, in := range instrs {
		for _, v := range in {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// stopProfiles flushes any active profiles; fatal must call it because
// deferred functions do not run past os.Exit. Replaced in main once
// profiling starts.
var stopProfiles = func() {}

// stopTelemetry flushes the trace file, dumps metrics and closes the live
// endpoint; same every-exit-path discipline as stopProfiles.
var stopTelemetry = func() {}

// closeStore flushes and closes the persistent cache store opened by
// -cache-dir; same every-exit-path discipline as stopProfiles.
var closeStore = func() {}

func fatal(err error) {
	closeStore()
	stopProfiles()
	stopTelemetry()
	fmt.Fprintln(os.Stderr, "parmem-tables:", err)
	if errors.Is(err, parmem.ErrCanceled) {
		os.Exit(exitCanceled)
	}
	os.Exit(exitFailure)
}
