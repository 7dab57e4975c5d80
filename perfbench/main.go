// Command perfbench is parmem's request-path benchmark. It boots an
// in-process fleet — one gateway in front of two daemons on loopback TCP,
// each configured as cmd/parmemgw and cmd/parmemd configure them by
// default — drives one named workload through it from closed-loop
// clients, checks every output, and prints the end-to-end metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload warm-assign --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics: set-up time, throughput,
// p50/p90 latency, success fraction, CPU per request, peak RSS and copies
// per value. --trace 1 is the separate traced run: it sends the same
// workload with a span around every client call and replays the
// workload's inputs through the layers' public functions, one span per
// call, to report the per-layer metrics. Either way the last line of
// standard output is one JSON object; the exit code is non-zero when any
// output check or workload guard fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"parmem/internal/alloccache"
	"parmem/internal/server"
)

// setups is how many times a run boots, fills and warms a fleet; setup_s
// is their median and the last one serves the timed phase.
const setups = 3

// A timed phase during which the hypervisor gave more than maxSteal of the
// machine's CPU time to other guests measured the neighbours as much as
// parmem: it is run again, at most stealRetries times. Its replies are
// still checked.
const (
	maxSteal     = 0.02
	stealRetries = 1
)

// runLimit bounds one whole run, checks included.
const runLimit = 150 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: warm-assign, cold-assign, edit-session or compile")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	spans := fs.String("spans", "", "traced run: write its spans to this file as a Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wi, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	d := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = runTraced(ctx, wi, *seed, d, *spans)
	} else {
		res, err = runMeasured(ctx, wi, *seed, d)
	}
	if res.Metrics == nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wi.name, err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil || !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: FAILED: %v\n", wi.name, err)
		return 1
	}
	return 0
}

// bench is a booted, filled and warmed fleet ready for its timed phase.
type bench struct {
	fl      *fleet
	clients []*server.Client
	w       workload
}

func (b *bench) close() error {
	closeClients(b.clients)
	return b.fl.close()
}

// prepare boots, fills and warms the fleet `setups` times and returns the
// last one together with each set-up's wall time in seconds.
func prepare(ctx context.Context, wi workloadInfo, seed uint64) (*bench, []float64, error) {
	var times []float64
	for rep := 0; ; rep++ {
		t0 := time.Now()
		b, err := setUp(ctx, wi, seed)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if rep == setups-1 {
			return b, times, nil
		}
		if err := b.close(); err != nil {
			return nil, nil, fmt.Errorf("draining set-up fleet: %w", err)
		}
	}
}

func setUp(ctx context.Context, wi workloadInfo, seed uint64) (*bench, error) {
	fl, err := startFleet()
	if err != nil {
		return nil, err
	}
	clients, err := dial(fl.gw.Addr(), runtime.NumCPU()) // one closed-loop client per CPU
	if err != nil {
		fl.close()
		return nil, fmt.Errorf("dialing gateway: %w", err)
	}
	b := &bench{fl: fl, clients: clients, w: wi.make(seed, len(clients))}
	if err := b.w.setup(ctx, clients); err != nil {
		b.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return b, nil
}

// runMeasured is the untraced run that produces the end-to-end metrics.
func runMeasured(ctx context.Context, wi workloadInfo, seed uint64, d time.Duration) (result, error) {
	b, setupTimes, err := prepare(ctx, wi, seed)
	if err != nil {
		return result{}, err
	}
	var (
		ph     phase
		levels map[string]alloccache.LevelStats
	)
	for attempt := 0; ; attempt++ {
		before := b.fl.cacheLevels()
		ph = runPhase(ctx, b.clients, d, b.w.send)
		levels = levelDelta(before, b.fl.cacheLevels())
		if ph.steal <= maxSteal || attempt == stealRetries {
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: %.1f%% of the machine's CPU time was stolen by other guests; measuring again\n", 100*ph.steal)
	}
	if err := b.close(); err != nil {
		return result{}, fmt.Errorf("draining fleet: %w", err)
	}
	checkErr := errors.Join(b.w.guard(ph, levels), b.w.check(ctx))
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	lat := ph.all()
	p50, p90 := percentile(lat, 0.50), percentile(lat, 0.90)
	if math.IsInf(p90, 1) {
		return result{}, fmt.Errorf("p90 lies among failed requests (%d of %d failed; first: %v)",
			ph.attempted-ph.ok, ph.attempted, ph.firstErr)
	}
	if ph.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed; first: %v\n", ph.attempted-ph.ok, ph.attempted, ph.firstErr)
	}
	res := result{
		Correct:   checkErr == nil,
		Attempted: ph.attempted,
		Failed:    ph.attempted - ph.ok,
		Metrics: map[string]metric{
			"setup_s":          {median(setupTimes), "s"},
			"throughput_rps":   {ph.throughput(), "1/s"},
			"latency_p50_ms":   {p50, "ms"},
			"latency_p90_ms":   {p90, "ms"},
			"ok_frac":          {ph.okFrac(), "ratio"},
			"cpu_ms_per_req":   {ph.cpuPerReq(), "ms"},
			"peak_rss_mb":      {rss, "MiB"},
			"copies_per_value": {b.w.copiesPerValue(), "ratio"},
		},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests (%d beyond p90), %d clients, %d CPUs, %s, steal %.1f%%\n",
		wi.name, seed, ph.attempted, ph.attempted-int(math.Ceil(0.9*float64(ph.attempted))),
		len(b.clients), runtime.NumCPU(), runtime.Version(), 100*ph.steal)
	return res, checkErr
}
