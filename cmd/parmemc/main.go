// Command parmemc is the MPL compiler driver: it compiles a program through
// the full pipeline (parse → lower → rename → schedule → memory-module
// assignment), optionally runs it on the simulated LIW machine, and prints
// whatever stage the flags request.
//
// Usage:
//
//	parmemc [flags] file.mpl             compile a source file
//	parmemc [flags] -bench TAYLOR1       compile a built-in benchmark
//	parmemc [flags] -batch 'src/*.mpl'…  compile many files as one batch
//
// Flags select output: -dump-ir, -dump-sched, -dump-alloc, -dump-conflicts,
// -run, -stats. Robustness flags: -timeout bounds the whole run with a
// context deadline, -budget-nodes caps the backtracking search, and
// -max-cycles caps simulation length. Observability flags: -cpuprofile and
// -memprofile write runtime/pprof profiles; -trace FILE writes a Chrome
// trace_event file of the pipeline (open in chrome://tracing or Perfetto);
// -metrics dumps the engine metrics to stderr on exit; -telemetry-addr
// serves /metrics, /debug/vars and /debug/pprof live (-telemetry-linger
// keeps it up after the run); -cache-dir persists the allocation cache across runs, so recompiling the same
// program skips its coloring and duplication searches entirely.
//
// -batch treats every positional argument as a file or glob pattern and
// streams the expanded file list through the batch compiler (one bounded
// worker pool, one shared budget, shared subproblem cache), printing one
// summary line per file. The dump and -run flags apply to single-file mode
// only.
//
// Exit codes: 0 success, 1 failure (in batch mode: any file failed),
// 3 success but the allocator degraded to a fallback method (budget
// exhausted; any file in batch mode), 4 canceled (timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"parmem"
	"parmem/internal/profiling"
	"parmem/internal/telemetrycli"
)

// Exit codes. 2 is reserved (flag parse errors use it).
const (
	exitFailure  = 1
	exitDegraded = 3
	exitCanceled = 4
)

func main() {
	var (
		modules    = flag.Int("k", 8, "number of parallel memory modules")
		units      = flag.Int("units", 0, "functional units per word (default: k)")
		strategy   = flag.String("strategy", "STOR1", "conflict-graph strategy: STOR1, STOR2, STOR3 or PerRegion")
		method     = flag.String("method", "hittingset", "duplication method: hittingset or backtrack")
		unroll     = flag.Int("unroll", 0, "loop unrolling factor (0 disables)")
		optimize   = flag.Bool("optimize", false, "run the scalar optimizer (folding, copy propagation, DCE)")
		ifconvert  = flag.Bool("ifconvert", false, "predicate short fault-free conditionals")
		noAtoms    = flag.Bool("no-atoms", false, "disable clique-separator decomposition")
		noRename   = flag.Bool("no-rename", false, "disable definition renaming")
		benchName  = flag.String("bench", "", "compile a built-in benchmark instead of a file")
		batch      = flag.Bool("batch", false, "treat arguments as files/globs and compile them as one batch")
		dumpIR     = flag.Bool("dump-ir", false, "print the three-address IR")
		dumpSched  = flag.Bool("dump-sched", false, "print the long-instruction-word schedule")
		dumpAlloc  = flag.Bool("dump-alloc", false, "print the memory-module allocation")
		dumpConfl  = flag.Bool("dump-conflicts", false, "print per-word operand sets")
		run        = flag.Bool("run", false, "execute on the simulated machine")
		traceWords = flag.Bool("trace-words", false, "with -run: print each executed word")
		showStats  = flag.Bool("stats", false, "print allocation and execution statistics")
		timeout    = flag.Duration("timeout", 0, "wall-clock limit for the whole run (0 disables)")
		nodes      = flag.Int64("budget-nodes", 0, "backtracking node budget (0 = default, -1 = unlimited)")
		maxCycles  = flag.Int64("max-cycles", 0, "with -run: abort after this many machine cycles (0 disables)")
		workers    = flag.Int("workers", 0, "assignment worker pool size (0 = one per CPU, 1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		cacheDir   = flag.String("cache-dir", "", "persist the allocation cache here; later runs reuse earlier results")
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

	opt := parmem.Options{
		Budget:          parmem.Budget{MaxBacktrackNodes: *nodes, MaxCycles: *maxCycles},
		Modules:         *modules,
		Units:           *units,
		Unroll:          *unroll,
		Optimize:        *optimize,
		IfConvert:       *ifconvert,
		DisableAtoms:    *noAtoms,
		DisableRenaming: *noRename,
		Workers:         *workers,
		Telemetry:       rec,
	}
	switch *strategy {
	case "STOR1":
		opt.Strategy = parmem.STOR1
	case "STOR2":
		opt.Strategy = parmem.STOR2
	case "STOR3":
		opt.Strategy = parmem.STOR3
	case "PerRegion":
		opt.Strategy = parmem.PerRegion
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}
	switch *method {
	case "hittingset":
		opt.Method = parmem.HittingSet
	case "backtrack":
		opt.Method = parmem.Backtrack
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}

	if *cacheDir != "" {
		store, err := parmem.OpenCacheStore(parmem.CacheConfig{DiskPath: *cacheDir})
		if err != nil {
			fatal(err)
		}
		closeStore = func() { store.Close() }
		defer closeStore()
		opt.Store = store
	}

	if *batch {
		runBatch(ctx, flag.Args(), opt)
		return
	}

	src, name, err := readSource(*benchName, flag.Args())
	if err != nil {
		fatal(err)
	}

	p, err := parmem.CompileCtx(ctx, src, opt)
	if err != nil {
		fatal(err)
	}

	if *dumpIR {
		fmt.Print(p.Func.String())
	}
	if *dumpSched {
		fmt.Print(p.Sched.String())
	}
	if *dumpConfl {
		for i, in := range p.Instructions() {
			fmt.Printf("w%d: %v\n", i, []int(in))
		}
	}
	if *dumpAlloc {
		printAlloc(p)
	}
	if *showStats || (!*dumpIR && !*dumpSched && !*dumpAlloc && !*dumpConfl && !*run) {
		fmt.Printf("%s: %d values (%d single-copy, %d multi-copy), %d total copies, %d words, %d atoms\n",
			name, p.Alloc.SingleCopy+p.Alloc.MultiCopy, p.Alloc.SingleCopy,
			p.Alloc.MultiCopy, p.Alloc.TotalCopies, len(p.Sched.Words), p.Alloc.Atoms)
	}
	if *showStats {
		for _, ph := range p.Alloc.Phases {
			line := fmt.Sprintf("phase %-16s method=%s nodes=%d elapsed=%s",
				ph.Phase, ph.Method, ph.Nodes, ph.Elapsed.Round(time.Microsecond))
			if ph.Fallback != "" {
				line += " fallback=" + ph.Fallback
			}
			if ph.Cached {
				line += " cached"
			}
			fmt.Println(line)
		}
	}
	if p.Alloc.Degraded {
		fmt.Fprintln(os.Stderr, "parmemc: warning: duplication budget exhausted; allocation degraded to a fallback method")
	}
	if *run {
		ropt := parmem.RunOptions{}
		if *traceWords {
			ropt.Trace = os.Stdout
		}
		res, err := p.RunCtx(ctx, ropt)
		if err != nil {
			fatal(err)
		}
		times := p.AnalyzeTimes(res)
		fmt.Printf("executed %d words (%d ops) in %d cycles; stalls %d; speedup %.2fx\n",
			res.DynamicWords, res.DynamicOps, res.Cycles, res.Stalls, res.Speedup())
		fmt.Printf("transfer times: t_min=%.0f t_ave=%.1f t_max=%.0f (ave/min %.2f, max/min %.2f)\n",
			times.TMin, times.TAve, times.TMax, times.RatioAve(), times.RatioMax())
	}
	if p.Alloc.Degraded {
		closeStore()
		stopProfiles()
		stopTelemetry()
		os.Exit(exitDegraded)
	}
}

// closeStore flushes and closes the persistent cache store, if any;
// every os.Exit path must call it or write-behind entries are lost.
// Replaced in main when -cache-dir opens a store.
var closeStore = func() {}

// stopProfiles flushes any active profiles; every os.Exit path must call it
// because deferred functions do not run past Exit. Replaced in main once
// profiling starts.
var stopProfiles = func() {}

// stopTelemetry flushes the trace file, dumps metrics and closes the live
// endpoint; same every-exit-path discipline as stopProfiles. Replaced in
// main once telemetry starts.
var stopTelemetry = func() {}

// expandBatchArgs resolves each argument as a glob pattern, falling back to
// a literal path when the pattern matches nothing (so plain file names work
// whether or not the shell expanded them).
func expandBatchArgs(args []string) ([]string, error) {
	var files []string
	for _, arg := range args {
		matches, err := filepath.Glob(arg)
		if err != nil {
			return nil, fmt.Errorf("bad pattern %q: %w", arg, err)
		}
		if len(matches) == 0 {
			matches = []string{arg}
		}
		sort.Strings(matches)
		files = append(files, matches...)
	}
	if len(files) == 0 {
		return nil, errors.New("usage: parmemc -batch [flags] file.mpl... (or glob patterns)")
	}
	return files, nil
}

// runBatch compiles every matched file through the batch pipeline, prints
// one summary line per file, and exits: 1 if any file failed, 3 if all
// succeeded but any allocation degraded, 4 if canceled, 0 otherwise.
func runBatch(ctx context.Context, args []string, opt parmem.Options) {
	files, err := expandBatchArgs(args)
	if err != nil {
		fatal(err)
	}
	srcs := make([]string, len(files))
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		srcs[i] = string(b)
	}
	if opt.Cache == nil && opt.Store == nil {
		opt.Cache = parmem.NewAllocCache(0) // batch items share subproblems
	}
	results := parmem.CompileBatch(ctx, srcs, opt)
	failed, degraded, canceled := 0, 0, false
	for i, r := range results {
		if r.Err != nil {
			failed++
			if errors.Is(r.Err, parmem.ErrCanceled) {
				canceled = true
			}
			fmt.Fprintf(os.Stderr, "parmemc: %s: %v\n", files[i], r.Err)
			continue
		}
		al := r.Program.Alloc
		status := ""
		if al.Degraded {
			degraded++
			status = " (degraded)"
		}
		fmt.Printf("%s: %d values (%d single-copy, %d multi-copy), %d total copies, %d words, %d atoms%s\n",
			files[i], al.SingleCopy+al.MultiCopy, al.SingleCopy,
			al.MultiCopy, al.TotalCopies, len(r.Program.Sched.Words), al.Atoms, status)
	}
	fmt.Printf("batch: %d/%d compiled, %d degraded\n", len(files)-failed, len(files), degraded)
	closeStore()
	stopProfiles()
	stopTelemetry()
	switch {
	case canceled:
		os.Exit(exitCanceled)
	case failed > 0:
		os.Exit(exitFailure)
	case degraded > 0:
		os.Exit(exitDegraded)
	}
}

func readSource(bench string, args []string) (src, name string, err error) {
	if bench != "" {
		s, err := parmem.BenchmarkSource(bench)
		return s, bench, err
	}
	if len(args) != 1 {
		return "", "", fmt.Errorf("usage: parmemc [flags] file.mpl (or -bench NAME; available: %v)", parmem.Benchmarks())
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return string(b), args[0], nil
}

func printAlloc(p *parmem.Program) {
	type row struct {
		id   int
		name string
		mods []int
	}
	var rows []row
	for id, set := range p.Alloc.Copies {
		name := fmt.Sprintf("v%d", id)
		if id < len(p.Func.Values) {
			name = p.Func.Values[id].Name
		}
		rows = append(rows, row{id: id, name: name, mods: set.Modules()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	for _, r := range rows {
		marks := ""
		for m := 0; m < p.Opt.Modules; m++ {
			c := "-"
			for _, x := range r.mods {
				if x == m {
					c = "x"
				}
			}
			marks += c
		}
		fmt.Printf("%-12s %s\n", r.name, marks)
	}
}

func fatal(err error) {
	closeStore()
	stopProfiles()
	stopTelemetry()
	fmt.Fprintln(os.Stderr, "parmemc:", err)
	if errors.Is(err, parmem.ErrCanceled) {
		os.Exit(exitCanceled)
	}
	os.Exit(exitFailure)
}
