package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parmem"
	"parmem/internal/alloccache"
	"parmem/internal/atoms"
	"parmem/internal/coloring"
	"parmem/internal/conflict"
	"parmem/internal/dfa"
	"parmem/internal/ir"
	"parmem/internal/lang"
	"parmem/internal/sched"
	"parmem/internal/server"
)

// The traced run. It never produces end-to-end numbers; it says which
// layer a change moved. Spans are recorded by the benchmark around its own
// calls into each layer — none is added inside the program — kept in
// memory, and written out as a Chrome trace when the run ends.

// span is one Chrome trace "complete" event.
type span struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs since the tracer started
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracer collects spans in memory.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// time runs fn inside a span and returns its duration. req ties the spans
// of one request or replayed input together.
func (t *tracer) time(layer, name string, tid, req int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.add(layer, name, tid, req, start, d)
	return d
}

func (t *tracer) add(layer, name string, tid, req int, start time.Time, d time.Duration) {
	s := span{Name: name, Cat: layer, Ph: "X", TS: us(start.Sub(t.t0)), Dur: us(d), PID: 1, TID: tid,
		Args: map[string]any{"req": req}}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durs returns the durations of every span named name, in µs.
func (t *tracer) durs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.Dur)
		}
	}
	return out
}

// medianUS is the median duration of the spans named name, in µs (0 when
// the workload never reached that layer).
func (t *tracer) medianUS(name string) float64 {
	d := t.durs(name)
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// write stores the spans as a Chrome trace.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tracedSender wraps send with one client-call span per request.
func tracedSender(tr *tracer, name string, send sender) sender {
	var next atomic.Int64
	return func(ctx context.Context, ci int, c *server.Client) (time.Duration, error) {
		req := int(next.Add(1) - 1)
		start := time.Now()
		el, err := send(ctx, ci, c)
		tr.add("client", "client."+name, ci+1, req, start, time.Since(start))
		return el, err
	}
}

// runTraced produces the per-layer metrics: the workload through the
// gateway untraced and traced, then straight to one daemon, then a replay
// of its inputs through the layers' public functions. Allocation, GC and
// cache counters cover the untraced and traced slices together. Every
// reply is checked; the workload guards, which protect the end-to-end
// numbers, belong to the measured run.
func runTraced(ctx context.Context, wi workloadInfo, seed uint64, d time.Duration, spansPath string) (result, error) {
	b, err := setUp(ctx, wi, seed)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	m := map[string]metric{}
	// Untraced and traced slices alternate, so a drift in the machine's load
	// does not land on one side of the tracing-overhead ratio.
	traced := tracedSender(tr, wi.name, b.w.send)
	before := b.fl.cacheLevels()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var plain, ph phase
	for i := 0; i < 2; i++ {
		plain = plain.merge(runPhase(ctx, b.clients, d/4, b.w.send))
		ph = ph.merge(runPhase(ctx, b.clients, d/4, traced))
	}
	runtime.ReadMemStats(&ms1)
	levels := levelDelta(before, b.fl.cacheLevels())
	if ph.attempted == 0 || plain.attempted == 0 {
		b.close()
		return result{}, fmt.Errorf("traced run sent no requests")
	}
	n := float64(plain.attempted + ph.attempted)
	m["process.allocs_per_req"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / n, "count"}
	m["process.gc_per_1k_req"] = metric{float64(ms1.NumGC-ms0.NumGC) * 1000 / n, "count"}
	m["process.tracing_overhead_frac"] = metric{1 - ph.throughput()/plain.throughput(), "ratio"}

	var records []server.FlightRecord
	for _, s := range b.fl.daemons {
		records = append(records, s.FlightRecords()...)
	}
	var queue, service []float64
	shed := 0
	for _, r := range records {
		queue = append(queue, float64(r.QueueUS))
		service = append(service, float64(r.LatencyUS)/1000)
		if r.Code == string(server.CodeResourceExhausted) {
			shed++
		}
	}
	m["server.queue_us_p50"] = metric{orZero(percentile(queue, 0.5)), "us"}
	m["server.queue_us_p90"] = metric{orZero(percentile(queue, 0.9)), "us"}
	m["server.service_ms_p50"] = metric{orZero(percentile(service, 0.5)), "ms"}
	m["server.shed_frac"] = metric{float64(shed) / math.Max(1, float64(len(records))), "ratio"}
	for _, lvl := range []string{"assign", "atomcolor", "dup", "comp"} {
		f, _ := hitFrac(levels, lvl)
		m["alloccache."+lvl+"_hit_frac"] = metric{f, "ratio"}
	}
	m["alloccache.entries"] = metric{float64(b.fl.cacheEntries()), "count"}

	// The gateway hop: the same workload straight to one daemon.
	direct, err := runDirect(ctx, wi, seed, b, d/2)
	if cerr := b.close(); err == nil && cerr != nil {
		err = fmt.Errorf("draining fleet: %w", cerr)
	}
	if err != nil {
		return result{}, err
	}
	m["gateway.hop_us"] = metric{1000 * (percentile(plain.all(), 0.5) - percentile(direct.ph.all(), 0.5)), "us"}

	checkErr := errors.Join(b.w.check(ctx), direct.w.check(ctx))
	if w, ok := b.w.(*compileWL); ok {
		m["machine.sim_cycles"] = metric{float64(w.simCycles), "cycles"}
	} else {
		m["machine.sim_cycles"] = metric{0, "cycles"}
	}
	if err := replay(ctx, tr, replayInputs(b.w, seed), m); err != nil {
		return result{}, err
	}
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	return result{Correct: checkErr == nil, Attempted: ph.attempted, Failed: ph.attempted - ph.ok, Metrics: m}, checkErr
}

func orZero(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// directRun is a workload sent straight to one daemon, bypassing the
// gateway.
type directRun struct {
	w  workload
	ph phase
}

// runDirect sets the workload up again on its own connections to the
// first daemon and drives it for d.
func runDirect(ctx context.Context, wi workloadInfo, seed uint64, b *bench, d time.Duration) (directRun, error) {
	clients, err := dial(b.fl.daemons[0].Addr(), len(b.clients))
	if err != nil {
		return directRun{}, fmt.Errorf("dialing daemon: %w", err)
	}
	defer closeClients(clients)
	r := directRun{w: wi.make(seed, len(clients))}
	if cold, ok := r.w.(*coldAssign); ok { // fresh graphs, not the ones the gateway phases cached
		cold.next.Store(b.w.(*coldAssign).next.Load())
	}
	if err := r.w.setup(ctx, clients); err != nil {
		return directRun{}, fmt.Errorf("direct set-up: %w", err)
	}
	r.ph = runPhase(ctx, clients, d, r.w.send)
	return r, nil
}

// replaySet is a workload's distinct inputs, replayed layer by layer.
type replaySet struct {
	assigns  []assignInput
	compiles []compileSource
	session  *session // edit-session: deltas replayed against its base
}

type assignInput struct {
	instrs [][]int
	k      int
}

// Replay sizes: enough inputs for stable medians, few enough to keep the
// traced run short.
const (
	replayCold  = 32
	replayEdits = 48
)

func replayInputs(w workload, seed uint64) replaySet {
	var rs replaySet
	switch w := w.(type) {
	case *warmAssign:
		for _, g := range w.pool {
			rs.assigns = append(rs.assigns, assignInput{g, assignK})
		}
	case *coldAssign:
		for i := 0; i < replayCold; i++ {
			rs.assigns = append(rs.assigns, assignInput{coldGraph(seed, i), assignK})
		}
	case *editSession:
		rs.session = newEditSession(seed, 1).sessions[0]
		rs.assigns = append(rs.assigns, assignInput{rs.session.base, editK})
	case *compileWL:
		rs.compiles = w.srcs
	}
	return rs
}

// replay runs every input through the layers' public functions, one span
// per call, and adds the per-layer metrics to m.
func replay(ctx context.Context, tr *tracer, rs replaySet, m map[string]metric) error {
	var c counts
	for i, src := range rs.compiles {
		instrs, err := replayCompile(ctx, tr, i, src, &c)
		if err != nil {
			return err
		}
		rs.assigns = append(rs.assigns, assignInput{instrs, src.k})
	}
	var residual []float64
	for i, in := range rs.assigns {
		r, err := replayAssign(ctx, tr, i, in, &c)
		if err != nil {
			return err
		}
		residual = append(residual, r)
	}
	if rs.session != nil {
		if err := replaySession(ctx, tr, rs.session, m); err != nil {
			return err
		}
	} else {
		m["assign.delta_ms"] = metric{0, "ms"}
		m["assign.delta_dirty_frac"] = metric{0, "ratio"}
		m["assign.delta_speedup"] = metric{0, "x"}
	}

	per := func(x int) float64 { return float64(x) / math.Max(1, float64(len(rs.assigns))) }
	perC := func(x int) float64 { return float64(x) / math.Max(1, float64(len(rs.compiles))) }
	ms := func(name string) float64 { return tr.medianUS(name) / 1000 }
	m["server.req_bytes"] = metric{per(c.reqBytes), "bytes"}
	m["server.resp_bytes"] = metric{per(c.respBytes), "bytes"}
	m["server.encode_us"] = metric{tr.medianUS("server.encode"), "us"}
	m["server.decode_us"] = metric{tr.medianUS("server.decode"), "us"}
	m["gateway.route_us"] = metric{tr.medianUS("gateway.route"), "us"}
	m["alloccache.hash_us"] = metric{tr.medianUS("alloccache.CanonicalHash"), "us"}
	m["alloccache.lookup_us"] = metric{tr.medianUS("parmem.AssignValues.warm"), "us"}
	m["conflict.build_us"] = metric{tr.medianUS("conflict.Build"), "us"}
	m["conflict.nodes"] = metric{per(c.nodes), "count"}
	m["conflict.edges"] = metric{per(c.edges), "count"}
	m["atoms.decompose_ms"] = metric{ms("atoms.Decompose"), "ms"}
	m["atoms.count"] = metric{per(c.atoms), "count"}
	m["atoms.max_size"] = metric{per(c.maxAtom), "count"}
	m["coloring.color_ms"] = metric{ms("coloring.GuptaSoffa"), "ms"}
	m["coloring.unassigned"] = metric{per(c.unassigned), "count"}
	m["assign.engine_ms"] = metric{ms("parmem.AssignValues"), "ms"}
	m["assign.dup_ms"] = metric{math.Max(0, orZero(median(residual))) / 1000, "ms"}
	m["assign.verify_us"] = metric{tr.medianUS("parmem.ConflictFree"), "us"}
	m["assign.degraded_frac"] = metric{per(c.degraded), "ratio"}
	m["lang.parse_us"] = metric{tr.medianUS("lang.Parse"), "us"}
	m["lang.lower_us"] = metric{tr.medianUS("lang.Lower"), "us"}
	m["dfa.rename_us"] = metric{tr.medianUS("dfa.Rename"), "us"}
	m["sched.schedule_us"] = metric{tr.medianUS("sched.Schedule"), "us"}
	m["sched.words"] = metric{perC(c.words), "count"}
	m["machine.run_ms"] = metric{ms("machine.Run"), "ms"}
	m["machine.stall_cycles"] = metric{perC(int(c.stalls)), "cycles"}
	return nil
}

// counts accumulates the work the replayed layers did.
type counts struct {
	reqBytes, respBytes        int
	nodes, edges               int
	atoms, maxAtom, unassigned int
	degraded, words            int
	stalls                     int64
}

// replayCompile runs one source through the front end and the simulator
// and returns its scheduled instruction stream.
func replayCompile(ctx context.Context, tr *tracer, i int, src compileSource, c *counts) ([][]int, error) {
	fail := func(stage string, err error) ([][]int, error) {
		return nil, fmt.Errorf("replay %s K=%d: %s: %w", src.name, src.k, stage, err)
	}
	var (
		ast *lang.Program
		err error
	)
	tr.time("lang", "lang.Parse", 0, i, func() { ast, err = lang.Parse(src.src) })
	if err != nil {
		return fail("parse", err)
	}
	var fn *ir.Func
	tr.time("lang", "lang.Lower", 0, i, func() { fn, err = lang.Lower(ast) })
	if err != nil {
		return fail("lower", err)
	}
	tr.time("dfa", "dfa.Rename", 0, i, func() { _, _, err = dfa.Rename(fn) })
	if err != nil {
		return fail("rename", err)
	}
	var sp *sched.Program
	tr.time("sched", "sched.Schedule", 0, i, func() { sp, err = sched.Schedule(fn, sched.Config{Modules: src.k, Units: src.k}) })
	if err != nil {
		return fail("schedule", err)
	}
	c.words += len(sp.Words)

	p, err := parmem.CompileCtx(ctx, src.src, parmem.Options{Modules: src.k})
	if err != nil {
		return fail("compile", err)
	}
	var res *parmem.Result
	tr.time("machine", "machine.Run", 0, i, func() { res, err = p.RunCtx(ctx, parmem.RunOptions{}) })
	if err != nil {
		return fail("run", err)
	}
	c.stalls += res.Stalls
	var instrs [][]int
	for _, in := range p.Instructions() {
		instrs = append(instrs, []int(in))
	}
	return instrs, nil
}

// replayAssign runs one instruction stream through the wire codec, the
// gateway's route key and each engine layer. It returns the duplication
// residual: the cold engine time not spent in build, decompose or color,
// in µs.
func replayAssign(ctx context.Context, tr *tracer, i int, in assignInput, c *counts) (float64, error) {
	instrs := toInstrs(in.instrs)
	var (
		al  parmem.Allocation
		err error
	)
	engine := tr.time("assign", "parmem.AssignValues", 0, i, func() {
		al, err = parmem.AssignValues(ctx, instrs, parmem.AssignConfig{K: in.k})
	})
	if err != nil {
		return 0, fmt.Errorf("replay input %d: %w", i, err)
	}
	if al.Degraded {
		c.degraded++
	}

	// Wire: both directions of one assign through the codec and framing.
	req := server.AssignRequest{Instrs: in.instrs, K: in.k}
	resp := server.Response{Code: server.CodeOK, Result: wireSummary(al)}
	var reqPayload, respPayload []byte
	var reqFrame, respFrame bytes.Buffer
	tr.time("server", "server.encode", 0, i, func() {
		if reqPayload, err = json.Marshal(req); err != nil {
			return
		}
		if err = server.WriteFrame(&reqFrame, server.Frame{Op: server.OpAssign, ID: 1, Payload: reqPayload}); err != nil {
			return
		}
		if respPayload, err = json.Marshal(resp); err != nil {
			return
		}
		err = server.WriteFrame(&respFrame, server.Frame{Op: server.OpAssign.Response(), ID: 1, Payload: respPayload})
	})
	if err != nil {
		return 0, fmt.Errorf("replay input %d: encode: %w", i, err)
	}
	c.reqBytes += len(reqPayload)
	c.respBytes += len(respPayload)
	tr.time("server", "server.decode", 0, i, func() {
		var f server.Frame
		if f, err = server.ReadFrame(&reqFrame, server.DefaultMaxFrame); err != nil {
			return
		}
		var r server.AssignRequest
		if err = json.Unmarshal(f.Payload, &r); err != nil {
			return
		}
		if f, err = server.ReadFrame(&respFrame, server.DefaultMaxFrame); err != nil {
			return
		}
		var back server.Response
		err = json.Unmarshal(f.Payload, &back)
	})
	if err != nil {
		return 0, fmt.Errorf("replay input %d: decode: %w", i, err)
	}
	// The gateway's route key, as it computes it for an assign.
	tr.time("gateway", "gateway.route", 0, i, func() {
		var r server.AssignRequest
		if err = json.Unmarshal(reqPayload, &r); err != nil {
			return
		}
		_ = alloccache.CanonicalHash(conflict.Build(toInstrs(r.Instrs)))
	})
	if err != nil {
		return 0, fmt.Errorf("replay input %d: route: %w", i, err)
	}

	g := conflict.Build(instrs) // untimed: the traced call follows
	build := tr.time("conflict", "conflict.Build", 0, i, func() { g = conflict.Build(instrs) })
	c.nodes += g.NumNodes()
	c.edges += g.NumEdges()
	tr.time("alloccache", "alloccache.CanonicalHash", 0, i, func() { _ = alloccache.CanonicalHash(g) })
	var dec atoms.Decomposition
	decompose := tr.time("atoms", "atoms.Decompose", 0, i, func() { dec = atoms.Decompose(g) })
	c.atoms += len(dec.Atoms)
	c.maxAtom += dec.MaxAtomSize()
	color := tr.time("coloring", "coloring.GuptaSoffa", 0, i, func() {
		for _, a := range dec.Atoms {
			c.unassigned += len(coloring.GuptaSoffa(a.Graph, coloring.Options{K: in.k}).Unassigned)
		}
	})
	ok := true
	tr.time("assign", "parmem.ConflictFree", 0, i, func() {
		for _, ops := range instrs {
			ok = ok && parmem.ConflictFree(ops, al.Copies)
		}
	})
	if !ok {
		return 0, fmt.Errorf("replay input %d: allocation has a module conflict", i)
	}

	// A lookup on a warm store: the whole-assignment memo answers.
	cache := parmem.NewAllocCache(0)
	if _, err := parmem.AssignValues(ctx, instrs, parmem.AssignConfig{K: in.k, Cache: cache}); err != nil {
		return 0, fmt.Errorf("replay input %d: filling cache: %w", i, err)
	}
	tr.time("alloccache", "parmem.AssignValues.warm", 0, i, func() {
		_, err = parmem.AssignValues(ctx, instrs, parmem.AssignConfig{K: in.k, Cache: cache})
	})
	if err != nil {
		return 0, fmt.Errorf("replay input %d: warm lookup: %w", i, err)
	}
	return us(engine - build - decompose - color), nil
}

// wireSummary is the AllocSummary the daemon sends for an assign.
func wireSummary(al parmem.Allocation) *server.AllocSummary {
	sum := &server.AllocSummary{Values: al.SingleCopy + al.MultiCopy, SingleCopy: al.SingleCopy,
		MultiCopy: al.MultiCopy, TotalCopies: al.TotalCopies, Atoms: al.Atoms, Degraded: al.Degraded,
		Copies: make(map[int][]int, len(al.Copies))}
	for id, set := range al.Copies {
		sum.Copies[id] = set.Modules()
	}
	return sum
}

// replaySession replays a session's deltas in process: a cold incremental
// hold, then each delta against the previous result.
func replaySession(ctx context.Context, tr *tracer, s *session, m map[string]metric) error {
	cfg := parmem.AssignConfig{K: editK}
	var (
		res *parmem.AssignResult
		err error
	)
	hold := tr.time("assign", "parmem.AssignValuesIncremental", 0, 0, func() {
		res, err = parmem.AssignValuesIncremental(ctx, toInstrs(s.base), cfg)
	})
	if err != nil {
		return fmt.Errorf("replay hold: %w", err)
	}
	var dirty []float64
	for j := 0; j < replayEdits; j++ {
		var d parmem.Delta
		for _, ch := range s.nextChange() {
			d.Changed = append(d.Changed, parmem.ChangedInstruction{Index: ch.Index, Instr: parmem.Instruction(ch.Ops)})
		}
		s.edited = d.Changed[len(d.Changed)-1].Index
		tr.time("assign", "parmem.AssignValuesDelta", 0, j+1, func() {
			res, err = parmem.AssignValuesDelta(ctx, res, d, cfg)
		})
		if err != nil {
			return fmt.Errorf("replay delta %d: %w", j, err)
		}
		st := res.Incremental
		dirty = append(dirty, float64(st.Dirty)/math.Max(1, float64(st.Components)))
	}
	delta := tr.medianUS("parmem.AssignValuesDelta")
	m["assign.delta_ms"] = metric{delta / 1000, "ms"}
	m["assign.delta_dirty_frac"] = metric{median(dirty), "ratio"}
	m["assign.delta_speedup"] = metric{us(hold) / delta, "x"}
	return nil
}
