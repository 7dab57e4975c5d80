package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parmem/internal/telemetry"
)

// The soak harness: hammer a parmemd with mixed well-formed traffic while
// injecting the faults a long-lived daemon actually meets — mid-request
// disconnects, garbage bytes, slow-loris writers, oversized frames,
// deadline storms, overload bursts — and account for every single request.
// The availability claim it checks is the PR's acceptance criterion: under
// all of that, >= 99% of well-formed in-budget requests succeed, excess
// load is shed with typed codes, and no in-flight request ever loses its
// response.

// SoakOptions configures one soak run.
type SoakOptions struct {
	// Addr is the daemon under test.
	Addr string
	// Duration is how long the load runs.
	Duration time.Duration
	// Workers is the number of well-formed load generators (each owns one
	// connection); default 4.
	Workers int
	// Faults enables the fault injectors.
	Faults bool
	// Seed makes the workload mix reproducible; 0 picks 1.
	Seed int64
	// DeadlineMS is the well-formed requests' deadline; default 5000.
	DeadlineMS int64
	// SteadyStateOps, when positive, appends a quiesced measurement phase
	// after the load (and any chaos) has drained: one client repeats an
	// identical well-formed assign request this many times and the
	// client-path heap allocations per operation are recorded in
	// AllocsPerOp. Identical requests are steady state by construction —
	// the daemon serves them from its allocation cache — so what is being
	// measured is the per-request protocol overhead that should never
	// creep.
	SteadyStateOps int
	// MaxAllocsPerOp is the Assert bar on AllocsPerOp; 0 disables the
	// check.
	MaxAllocsPerOp float64
	// Telemetry, when non-nil, records one client-side span per
	// well-formed request, so a -trace run contributes the client lane to
	// a fleet-merged trace.
	Telemetry *telemetry.Recorder
	// FlightURLs, when non-empty, enables the flight-recorder check after
	// the load drains: one deliberately heavy traced assign is sent, then
	// each URL's /debug/flight index is fetched and the run must find at
	// least one capture fleet-wide. List every backend's telemetry base
	// URL — routing may land the probe on any of them.
	FlightURLs []string
}

// SoakReport is the accounting of one soak run. Counters split by who
// sent the request: well-formed workers (the availability denominator),
// the deadline storm, and the overload bursts.
type SoakReport struct {
	// Well-formed traffic.
	Sent             int64 `json:"sent"`
	OK               int64 `json:"ok"`
	Degraded         int64 `json:"degraded"` // subset of OK (allocation degraded, still correct)
	Shed             int64 `json:"shed"`     // typed RESOURCE_EXHAUSTED
	Unavailable      int64 `json:"unavailable"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Canceled         int64 `json:"canceled"`
	InvalidArgument  int64 `json:"invalid_argument"`
	Internal         int64 `json:"internal"`
	TransportErrors  int64 `json:"transport_errors"` // connection died before a response: dropped in-flight

	// Deadline storm (tiny deadlines on purpose; any typed code is fine,
	// a dropped response is not).
	StormSent      int64 `json:"storm_sent"`
	StormResponded int64 `json:"storm_responded"`

	// Overload bursts (concurrency beyond the declared caps; must shed
	// typed, not hang or drop).
	OverloadSent      int64 `json:"overload_sent"`
	OverloadShed      int64 `json:"overload_shed"`
	OverloadOK        int64 `json:"overload_ok"`
	OverloadResponded int64 `json:"overload_responded"`

	// FaultConns counts raw fault-injector connections made.
	FaultConns int64 `json:"fault_conns"`

	// Latency of well-formed successful requests, microseconds.
	LatencyP50US int64 `json:"latency_p50_us"`
	LatencyP95US int64 `json:"latency_p95_us"`
	LatencyP99US int64 `json:"latency_p99_us"`
	LatencyMaxUS int64 `json:"latency_max_us"`

	// Distributed-tracing accounting: every well-formed response must echo
	// the 32-hex trace id its request carried; Slowest lists the worst
	// successful requests with their trace ids, the handle an operator
	// pastes into parmemtrace output or /debug/flight.
	TraceEchoMismatches int64         `json:"trace_echo_mismatches"`
	Slowest             []SlowRequest `json:"slowest,omitempty"`

	// SessionResets counts deltas whose base session had evaporated
	// server-side (backend death or upstream redial behind a gateway);
	// each one was answered by re-holding, the normal client recovery.
	SessionResets int64 `json:"session_resets,omitempty"`

	// Flight-recorder check (only with SoakOptions.FlightURLs).
	FlightChecked  bool  `json:"flight_checked,omitempty"`
	FlightCaptures int64 `json:"flight_captures,omitempty"`

	// Steady-state measurement (only with SoakOptions.SteadyStateOps).
	SteadyStateOps int64   `json:"steady_state_ops,omitempty"`
	AllocsPerOp    float64 `json:"allocs_per_op,omitempty"`
	MaxAllocsPerOp float64 `json:"max_allocs_per_op,omitempty"`
}

// SlowRequest is one entry of SoakReport.Slowest.
type SlowRequest struct {
	TraceID   string `json:"trace_id"`
	Op        string `json:"op"`
	LatencyUS int64  `json:"latency_us"`
}

// Availability is the served fraction of well-formed in-budget requests:
// successes over everything that was not explicitly shed by admission
// control (shed requests are the control working, and a real client
// retries them).
func (r *SoakReport) Availability() float64 {
	denom := r.Sent - r.Shed - r.Unavailable
	if denom <= 0 {
		return 1
	}
	return float64(r.OK) / float64(denom)
}

// Assert checks the acceptance criteria and returns a descriptive error
// on the first violation. faults says whether the injectors ran (and so
// whether shed/storm accounting must be non-trivial).
func (r *SoakReport) Assert(faults bool) error {
	if r.Sent == 0 {
		return errors.New("soak: no well-formed requests were sent")
	}
	if a := r.Availability(); a < 0.99 {
		return fmt.Errorf("soak: availability %.4f < 0.99 (%d ok of %d sent, %d shed, %d unavailable)",
			a, r.OK, r.Sent, r.Shed, r.Unavailable)
	}
	if r.TransportErrors > 0 {
		return fmt.Errorf("soak: %d well-formed requests lost their response (transport errors)", r.TransportErrors)
	}
	if r.Internal > 0 {
		return fmt.Errorf("soak: %d INTERNAL responses", r.Internal)
	}
	if r.InvalidArgument > 0 {
		return fmt.Errorf("soak: %d well-formed requests rejected as INVALID_ARGUMENT", r.InvalidArgument)
	}
	if r.TraceEchoMismatches > 0 {
		return fmt.Errorf("soak: %d responses did not echo their request's trace id", r.TraceEchoMismatches)
	}
	if r.FlightChecked && r.FlightCaptures == 0 {
		return errors.New("soak: forced-slow request produced no flight capture on any backend")
	}
	if faults {
		if r.StormSent > 0 && r.StormResponded != r.StormSent {
			return fmt.Errorf("soak: deadline storm sent %d, only %d got a typed response", r.StormSent, r.StormResponded)
		}
		if r.OverloadSent > 0 {
			if r.OverloadResponded != r.OverloadSent {
				return fmt.Errorf("soak: overload burst sent %d, only %d got a typed response", r.OverloadSent, r.OverloadResponded)
			}
			if r.OverloadShed == 0 {
				return fmt.Errorf("soak: overload bursts (%d requests past the declared caps) were never shed — admission control is not binding", r.OverloadSent)
			}
		}
	}
	if r.MaxAllocsPerOp > 0 && r.SteadyStateOps > 0 && r.AllocsPerOp > r.MaxAllocsPerOp {
		return fmt.Errorf("soak: steady-state allocations %.1f/op exceed the bar of %.1f/op over %d ops",
			r.AllocsPerOp, r.MaxAllocsPerOp, r.SteadyStateOps)
	}
	return nil
}

// soakSources are the well-formed compile payloads: small MPL programs
// exercising straight-line code, expressions and a loop.
var soakSources = []string{
	`program s0;
var a, b, c: int;
begin
  a := 2; b := 3; c := a * b + a;
end`,
	`program s1;
var a, b, c, d, e: int;
begin
  a := 1; b := a + 2; c := a * b;
  d := c - b; e := d * d + a;
end`,
	`program s2;
var s, t: int;
begin
  s := 0; t := 1;
  for i := 1 to 6 do
    s := s + i * t;
    t := t + s;
  end
end`,
}

// soakInstrs builds a random well-formed instruction stream: words of up
// to k distinct operands drawn from a small value universe, always
// assignable (possibly with duplication) for k modules.
func soakInstrs(rng *rand.Rand, k int) [][]int {
	// The universe must hold at least k distinct values or the word-filling
	// loop below could never collect a k-wide word.
	nvals := k + rng.Intn(12)
	words := 3 + rng.Intn(8)
	out := make([][]int, words)
	for w := range out {
		n := 1 + rng.Intn(k)
		seen := map[int]bool{}
		for len(seen) < n {
			seen[rng.Intn(nvals)] = true
		}
		word := make([]int, 0, n)
		for v := range seen {
			word = append(word, v)
		}
		sort.Ints(word)
		out[w] = word
	}
	return out
}

// soakState is the shared mutable accounting of one run.
type soakState struct {
	opt SoakOptions
	rep SoakReport

	latMu sync.Mutex
	lats  []int64
	slow  []SlowRequest
}

func (st *soakState) observe(us int64, op, trace string) {
	st.latMu.Lock()
	st.lats = append(st.lats, us)
	st.slow = append(st.slow, SlowRequest{TraceID: trace, Op: op, LatencyUS: us})
	st.latMu.Unlock()
}

// countCode attributes one well-formed response.
func (st *soakState) countCode(resp Response) {
	switch resp.Code {
	case CodeOK:
		atomic.AddInt64(&st.rep.OK, 1)
		if resp.Result != nil && resp.Result.Degraded {
			atomic.AddInt64(&st.rep.Degraded, 1)
		}
	case CodeResourceExhausted:
		atomic.AddInt64(&st.rep.Shed, 1)
	case CodeUnavailable:
		atomic.AddInt64(&st.rep.Unavailable, 1)
	case CodeDeadlineExceeded:
		atomic.AddInt64(&st.rep.DeadlineExceeded, 1)
	case CodeCanceled:
		atomic.AddInt64(&st.rep.Canceled, 1)
	case CodeInvalidArgument:
		atomic.AddInt64(&st.rep.InvalidArgument, 1)
	case CodeInternal:
		atomic.AddInt64(&st.rep.Internal, 1)
	}
}

// Soak runs the load (and, when enabled, the fault injectors) against
// opt.Addr until opt.Duration elapses or ctx cancels, then returns the
// full accounting. The error is non-nil only for setup failures — result
// judgments live in SoakReport.Assert so callers can print the report
// either way.
func Soak(ctx context.Context, opt SoakOptions) (*SoakReport, error) {
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	if opt.DeadlineMS <= 0 {
		opt.DeadlineMS = 5000
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Duration <= 0 {
		opt.Duration = 10 * time.Second
	}
	// Fail fast if the daemon is not there at all.
	probe, err := Dial(opt.Addr)
	if err != nil {
		return nil, fmt.Errorf("soak: cannot reach %s: %w", opt.Addr, err)
	}
	pctx, pcancel := context.WithTimeout(ctx, 5*time.Second)
	_, err = probe.Ping(pctx)
	pcancel()
	probe.Close()
	if err != nil {
		return nil, fmt.Errorf("soak: ping %s: %w", opt.Addr, err)
	}

	st := &soakState{opt: opt}
	runCtx, cancel := context.WithTimeout(ctx, opt.Duration)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < opt.Workers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			st.wellFormedWorker(runCtx, rand.New(rand.NewSource(seed)))
		}(opt.Seed + int64(i))
	}
	if opt.Faults {
		injectors := []func(context.Context, *rand.Rand){
			st.garbageInjector,
			st.disconnectInjector,
			st.slowLorisInjector,
			st.oversizeInjector,
			st.deadlineStormInjector,
			st.overloadInjector,
		}
		for i, inj := range injectors {
			wg.Add(1)
			go func(seed int64, inj func(context.Context, *rand.Rand)) {
				defer wg.Done()
				inj(runCtx, rand.New(rand.NewSource(seed)))
			}(opt.Seed+100+int64(i), inj)
		}
	}
	wg.Wait()

	st.latMu.Lock()
	sort.Slice(st.lats, func(i, j int) bool { return st.lats[i] < st.lats[j] })
	if n := len(st.lats); n > 0 {
		st.rep.LatencyP50US = st.lats[n/2]
		st.rep.LatencyP95US = st.lats[n*95/100]
		st.rep.LatencyP99US = st.lats[n*99/100]
		st.rep.LatencyMaxUS = st.lats[n-1]
	}
	sort.Slice(st.slow, func(i, j int) bool { return st.slow[i].LatencyUS > st.slow[j].LatencyUS })
	if len(st.slow) > 3 {
		st.slow = st.slow[:3]
	}
	st.rep.Slowest = st.slow
	st.latMu.Unlock()

	if len(opt.FlightURLs) > 0 {
		if err := st.flightCheck(ctx); err != nil {
			return &st.rep, err
		}
	}
	if opt.SteadyStateOps > 0 {
		if err := st.steadyState(ctx); err != nil {
			return &st.rep, err
		}
	}
	return &st.rep, nil
}

// flightCheck forces one anomalously heavy assign through the daemon, then
// counts flight captures across the fleet's /debug/flight endpoints. The
// probe is traced, so the capture it produces can be joined against a
// merged trace. Setup failures (unreachable telemetry URL) are errors; an
// absent capture is an Assert failure, recorded in the report.
func (st *soakState) flightCheck(ctx context.Context) error {
	st.rep.FlightChecked = true
	c, err := Dial(st.opt.Addr)
	if err != nil {
		return fmt.Errorf("soak: flight probe dial %s: %w", st.opt.Addr, err)
	}
	defer c.Close()

	// Heavy by construction: a long stream over a wide value universe.
	rng := rand.New(rand.NewSource(st.opt.Seed + 7))
	var instrs [][]int
	for len(instrs) < 192 {
		instrs = append(instrs, soakInstrs(rng, 6)...)
	}
	instrs = instrs[:192]
	tc := telemetry.NewTrace()
	pctx, pcancel := context.WithTimeout(telemetry.ContextWithTrace(ctx, tc), 30*time.Second)
	resp, err := c.Assign(pctx, AssignRequest{Instrs: instrs, K: 6, DeadlineMS: 30000})
	pcancel()
	if err != nil {
		return fmt.Errorf("soak: flight probe: %w", err)
	}
	if resp.Trace != tc.TraceID() {
		atomic.AddInt64(&st.rep.TraceEchoMismatches, 1)
	}

	// The daemon lists a request's capture before writing its response,
	// so every capture the probe can trigger is visible by now.
	client := &http.Client{Timeout: 5 * time.Second}
	var total int64
	for _, base := range st.opt.FlightURLs {
		n, err := fetchFlightCaptures(client, base)
		if err != nil {
			return fmt.Errorf("soak: flight index %s: %w", base, err)
		}
		total += n
	}
	st.rep.FlightCaptures = total
	return nil
}

// fetchFlightCaptures counts one daemon's retained flight captures via its
// /debug/flight index.
func fetchFlightCaptures(client *http.Client, base string) (int64, error) {
	url := strings.TrimSuffix(base, "/") + "/debug/flight"
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %s", resp.Status)
	}
	var idx struct {
		Captures []json.RawMessage `json:"captures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		return 0, err
	}
	return int64(len(idx.Captures)), nil
}

// steadyState measures client-path heap allocations per operation after
// the load (and any chaos) has fully drained: a single goroutine on one
// connection repeats an identical assign request. The daemon answers
// every repeat from its allocation cache, so the delta in Mallocs across
// the loop is the per-request protocol overhead — marshal, frame,
// dispatch, unmarshal — which must not creep between releases. All other
// soak goroutines have exited by the time this runs, so the process-wide
// Mallocs counter is attributable to this loop.
func (st *soakState) steadyState(ctx context.Context) error {
	ops := st.opt.SteadyStateOps
	c, err := Dial(st.opt.Addr)
	if err != nil {
		return fmt.Errorf("soak: steady-state dial %s: %w", st.opt.Addr, err)
	}
	defer c.Close()
	req := AssignRequest{
		Instrs:     soakInstrs(rand.New(rand.NewSource(st.opt.Seed)), 4),
		K:          4,
		DeadlineMS: st.opt.DeadlineMS,
	}
	one := func() error {
		resp, err := c.Assign(ctx, req)
		if err != nil {
			return err
		}
		if resp.Code != CodeOK {
			return fmt.Errorf("code %s (%s)", resp.Code, resp.Error)
		}
		return nil
	}
	// Warmup fills the daemon's cache and the client's internal buffers
	// so the measured window sees only steady-state work.
	warm := ops / 4
	if warm < 8 {
		warm = 8
	}
	for i := 0; i < warm; i++ {
		if err := one(); err != nil {
			return fmt.Errorf("soak: steady-state warmup: %w", err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		if err := one(); err != nil {
			return fmt.Errorf("soak: steady-state op %d: %w", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	st.rep.SteadyStateOps = int64(ops)
	st.rep.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
	st.rep.MaxAllocsPerOp = st.opt.MaxAllocsPerOp
	return nil
}

// wellFormedWorker drives one connection with a mixed op workload. It
// reconnects only after the server closes the connection during drain;
// a connection death with a request in flight counts as a dropped
// response.
func (st *soakState) wellFormedWorker(ctx context.Context, rng *rand.Rand) {
	var c *Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	held := false // a "soak" incremental session exists on this connection
	for ctx.Err() == nil {
		if c == nil {
			var err error
			if c, err = Dial(st.opt.Addr); err != nil {
				select {
				case <-ctx.Done():
					return
				case <-time.After(50 * time.Millisecond):
				}
				continue
			}
			held = false // sessions die with the connection
		}
		resp, err := st.sendOne(ctx, c, rng, &held)
		if err != nil {
			if ctx.Err() != nil {
				// Our own run window closed mid-request; not a drop.
				return
			}
			if errors.Is(err, ErrConnClosed) {
				// The server hung up with our request in flight — the
				// drop the drain criterion forbids.
				atomic.AddInt64(&st.rep.TransportErrors, 1)
				c.Close()
				c = nil
				continue
			}
			atomic.AddInt64(&st.rep.TransportErrors, 1)
			continue
		}
		st.countCode(resp)
	}
}

// sendOne sends one well-formed request, counting it Sent. Every request
// carries a fresh distributed trace (and, when SoakOptions.Telemetry is
// set, a client-side span), and every response must echo that trace id —
// the propagation contract the soak enforces.
func (st *soakState) sendOne(ctx context.Context, c *Client, rng *rand.Rand, held *bool) (Response, error) {
	atomic.AddInt64(&st.rep.Sent, 1)
	tc := telemetry.NewTrace()
	sp := st.opt.Telemetry.StartSpanTrace("request", tc)
	wire := tc
	if sp != nil {
		wire = sp.Context()
	}
	start := time.Now()
	op, resp, err := st.dispatch(telemetry.ContextWithTrace(ctx, wire), c, rng, held)
	sp.SetAttrStr("op", op)
	sp.End()
	if err == nil {
		if resp.Trace != tc.TraceID() {
			atomic.AddInt64(&st.rep.TraceEchoMismatches, 1)
		}
		if resp.Code == CodeOK {
			st.observe(time.Since(start).Microseconds(), op, tc.TraceID())
		}
	}
	return resp, err
}

// dispatch picks and sends one well-formed request. held tracks whether
// this connection holds the "soak" incremental session; delta requests are
// only sent against a base that was confirmed held.
func (st *soakState) dispatch(ctx context.Context, c *Client, rng *rand.Rand, held *bool) (string, Response, error) {
	dl := st.opt.DeadlineMS
	switch p := rng.Intn(100); {
	case p < 10:
		resp, err := c.Ping(ctx)
		return "ping", resp, err
	case p < 55:
		resp, err := c.Assign(ctx, AssignRequest{
			Instrs:     soakInstrs(rng, 4),
			K:          4,
			DeadlineMS: dl,
		})
		return "assign", resp, err
	case p < 65:
		// Incremental round-trip: hold a base, then patch it with a small
		// well-formed delta. The first leg (or a reconnect) establishes the
		// session; later visits exercise the delta path against it.
		if !*held {
			resp, err := c.Assign(ctx, AssignRequest{
				Instrs:     soakInstrs(rng, 4),
				K:          4,
				DeadlineMS: dl,
				Hold:       "soak",
			})
			if err == nil && resp.Code == CodeOK && resp.Held == "soak" {
				*held = true
			}
			return "assign", resp, err
		}
		// Change instruction 0 and append one word: always in range (the
		// held stream is never emptied — deltas here only change and add).
		resp, err := c.Delta(ctx, DeltaRequest{
			Base:       "soak",
			Hold:       "soak",
			Changed:    []ChangedOp{{Index: 0, Ops: soakInstrs(rng, 4)[0]}},
			Added:      [][]int{soakInstrs(rng, 4)[0]},
			DeadlineMS: dl,
		})
		if err == nil && resp.Code == CodeInvalidArgument &&
			strings.Contains(resp.Error, "unknown base session") {
			// The base evaporated server-side — a backend behind a gateway
			// died or its upstream connection was redialed. A real client
			// re-holds and carries on; do the same and account the re-hold
			// as this round's request.
			atomic.AddInt64(&st.rep.SessionResets, 1)
			*held = false
			resp, err = c.Assign(ctx, AssignRequest{
				Instrs:     soakInstrs(rng, 4),
				K:          4,
				DeadlineMS: dl,
				Hold:       "soak",
			})
			if err == nil && resp.Code == CodeOK && resp.Held == "soak" {
				*held = true
			}
			return "assign", resp, err
		}
		if err == nil && resp.Code == CodeOK && resp.Incremental == nil {
			// A delta success must carry its reuse accounting.
			resp = Response{Code: CodeInternal, Error: "delta response missing incremental stats", Trace: resp.Trace}
		}
		return "delta", resp, err
	case p < 90:
		resp, err := c.Compile(ctx, CompileRequest{
			Src:        soakSources[rng.Intn(len(soakSources))],
			DeadlineMS: dl,
		})
		return "compile", resp, err
	default:
		n := 2 + rng.Intn(3)
		srcs := make([]string, n)
		for i := range srcs {
			srcs[i] = soakSources[rng.Intn(len(soakSources))]
		}
		resp, err := c.Batch(ctx, BatchRequest{Srcs: srcs, DeadlineMS: dl})
		return "batch", resp, err
	}
}

// rawConn dials a raw TCP connection for the byte-level injectors.
func (st *soakState) rawConn() (net.Conn, error) {
	atomic.AddInt64(&st.rep.FaultConns, 1)
	return net.DialTimeout("tcp", st.opt.Addr, 2*time.Second)
}

// pause sleeps briefly between fault rounds, honoring cancellation.
func pause(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// garbageInjector writes random bytes (never a valid magic) and expects
// the server to close the connection without dying.
func (st *soakState) garbageInjector(ctx context.Context, rng *rand.Rand) {
	for ctx.Err() == nil {
		nc, err := st.rawConn()
		if err == nil {
			buf := make([]byte, 64+rng.Intn(512))
			rng.Read(buf)
			buf[0] = 0xFF                                   // guarantee a bad magic
			nc.Write(buf)                                   //nolint:errcheck
			nc.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck
			io := make([]byte, 16)
			nc.Read(io) //nolint:errcheck // just confirm the server hangs up
			nc.Close()
		}
		if !pause(ctx, 100*time.Millisecond) {
			return
		}
	}
}

// disconnectInjector sends truncated frames — a header promising a
// payload that never fully arrives — then hangs up mid-request.
func (st *soakState) disconnectInjector(ctx context.Context, rng *rand.Rand) {
	for ctx.Err() == nil {
		nc, err := st.rawConn()
		if err == nil {
			payload := []byte(`{"src":"program x; var a: int; begin a := 1; end"}`)
			f := appendFrame(nil, Frame{Op: OpCompile, ID: 1, Payload: payload})
			// Cut the frame anywhere, header included.
			cut := 1 + rng.Intn(len(f)-1)
			nc.Write(f[:cut]) //nolint:errcheck
			nc.Close()
		}
		if !pause(ctx, 80*time.Millisecond) {
			return
		}
	}
}

// slowLorisInjector trickles a valid header one byte at a time, far
// slower than any real client, and expects the frame timeout to kill the
// connection rather than the read loop waiting forever.
func (st *soakState) slowLorisInjector(ctx context.Context, _ *rand.Rand) {
	for ctx.Err() == nil {
		nc, err := st.rawConn()
		if err == nil {
			f := appendFrame(nil, Frame{Op: OpPing, ID: 7})
			for i := range f {
				if _, werr := nc.Write(f[i : i+1]); werr != nil {
					break // server cut us off: the guard worked
				}
				if !pause(ctx, 150*time.Millisecond) {
					break
				}
			}
			nc.Close()
		}
		if !pause(ctx, 100*time.Millisecond) {
			return
		}
	}
}

// oversizeInjector claims a payload beyond any sane frame cap and expects
// a typed INVALID_ARGUMENT response before the server closes the
// connection.
func (st *soakState) oversizeInjector(ctx context.Context, _ *rand.Rand) {
	for ctx.Err() == nil {
		nc, err := st.rawConn()
		if err == nil {
			var hdr [HeaderLen]byte
			binary.BigEndian.PutUint16(hdr[0:2], Magic)
			hdr[2] = Version
			hdr[3] = uint8(OpCompile)
			binary.BigEndian.PutUint64(hdr[4:12], 9)
			binary.BigEndian.PutUint32(hdr[12:16], 1<<31-1)
			nc.Write(hdr[:])                                    //nolint:errcheck
			nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
			readFrame(nc, DefaultMaxFrame)                      //nolint:errcheck // best-effort: the typed reject
			nc.Close()
		}
		if !pause(ctx, 150*time.Millisecond) {
			return
		}
	}
}

// deadlineStormInjector fires bursts of requests with 1ms deadlines. Any
// typed code is acceptable; what is being proven is that every one gets a
// response (no hangs, no drops) while the rest of the load is unharmed.
func (st *soakState) deadlineStormInjector(ctx context.Context, rng *rand.Rand) {
	for ctx.Err() == nil {
		c, err := Dial(st.opt.Addr)
		if err == nil {
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					atomic.AddInt64(&st.rep.StormSent, 1)
					rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
					defer rcancel()
					if _, err := c.Assign(rctx, AssignRequest{
						Instrs: soakInstrs(r, 4), K: 4, DeadlineMS: 1,
					}); err == nil {
						atomic.AddInt64(&st.rep.StormResponded, 1)
					} else if ctx.Err() != nil {
						// Storm cut off by the end of the run, not by the
						// server: do not count it against the daemon.
						atomic.AddInt64(&st.rep.StormSent, -1)
					}
				}(rng.Int63())
			}
			wg.Wait()
			c.Close()
		}
		if !pause(ctx, 200*time.Millisecond) {
			return
		}
	}
}

// overloadInjector bursts more concurrent requests onto one connection
// than its declared per-connection cap, proving admission control sheds
// the excess with typed codes instead of queueing it silently.
func (st *soakState) overloadInjector(ctx context.Context, rng *rand.Rand) {
	for ctx.Err() == nil {
		c, err := Dial(st.opt.Addr)
		if err == nil {
			var wg sync.WaitGroup
			for i := 0; i < 16; i++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					atomic.AddInt64(&st.rep.OverloadSent, 1)
					rctx, rcancel := context.WithTimeout(ctx, 10*time.Second)
					defer rcancel()
					resp, err := c.Compile(rctx, CompileRequest{
						Src:        soakSources[r.Intn(len(soakSources))],
						DeadlineMS: 5000,
					})
					if err != nil {
						if ctx.Err() != nil {
							atomic.AddInt64(&st.rep.OverloadSent, -1)
						}
						return
					}
					atomic.AddInt64(&st.rep.OverloadResponded, 1)
					switch resp.Code {
					case CodeResourceExhausted:
						atomic.AddInt64(&st.rep.OverloadShed, 1)
					case CodeOK:
						atomic.AddInt64(&st.rep.OverloadOK, 1)
					}
				}(rng.Int63())
			}
			wg.Wait()
			c.Close()
		}
		if !pause(ctx, 250*time.Millisecond) {
			return
		}
	}
}
