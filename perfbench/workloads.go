package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parmem"
	"parmem/internal/alloccache"
	"parmem/internal/server"
)

// workload is one named traffic mix. A fresh value serves each set-up.
type workload interface {
	// setup generates the inputs and runs the fixed, untimed warm-up.
	setup(ctx context.Context, clients []*server.Client) error
	// send issues client ci's next request; see sender.
	send(ctx context.Context, ci int, c *server.Client) (time.Duration, error)
	// guard fails a timed phase ph whose workload silently changed; levels
	// are the cache counters the phase moved.
	guard(ph phase, levels map[string]alloccache.LevelStats) error
	// check runs the output checks on every reply recorded so far.
	check(ctx context.Context) error
	// copiesPerValue is Σ TotalCopies / Σ values over the distinct results.
	copiesPerValue() float64
}

// workloadInfo names a workload and makes a fresh one for each set-up.
// BENCHMARK.json says why each is in the benchmark.
type workloadInfo struct {
	name string
	make func(seed uint64, clients int) workload
}

var workloads = []workloadInfo{
	{"warm-assign", func(seed uint64, n int) workload { return newWarmAssign(seed, n) }},
	{"cold-assign", func(seed uint64, n int) workload { return newColdAssign(seed, n) }},
	{"edit-session", func(seed uint64, n int) workload { return newEditSession(seed, n) }},
	{"compile", func(seed uint64, n int) workload { return newCompile(seed, n) }},
}

func findWorkload(name string) (workloadInfo, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadInfo{}, fmt.Errorf("unknown workload %q", name)
}

// runCount runs every client closed-loop for n requests and returns the
// first failure.
func runCount(ctx context.Context, clients []*server.Client, n int, send sender) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *server.Client) {
			defer wg.Done()
			for i := 0; i < n && errs[ci] == nil; i++ {
				_, errs[ci] = send(ctx, ci, c)
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- warm-assign ----

const warmPasses = 2 // warm-up passes over the pool per client

type warmAssign struct {
	pool [][][]int
	next []int      // per-client cursor into pool
	got  [][]*reply // [client][pool index]: the last reply
}

func newWarmAssign(seed uint64, clients int) *warmAssign {
	w := &warmAssign{next: make([]int, clients), got: make([][]*reply, clients)}
	for i := 0; i < warmPool; i++ {
		w.pool = append(w.pool, warmGraph(seed, i))
	}
	for ci := range w.next {
		w.next[ci] = ci * warmPool / clients
		w.got[ci] = make([]*reply, warmPool)
	}
	return w
}

func (w *warmAssign) setup(ctx context.Context, clients []*server.Client) error {
	for i := 0; i < warmPool; i++ { // fill the owning shards' caches
		if _, err := w.assign(ctx, 0, clients[0], i); err != nil {
			return fmt.Errorf("filling pool graph %d: %w", i, err)
		}
	}
	return runCount(ctx, clients, warmPasses*warmPool, w.send)
}

func (w *warmAssign) send(ctx context.Context, ci int, c *server.Client) (time.Duration, error) {
	i := w.next[ci]
	w.next[ci] = (i + 1) % warmPool
	return w.assign(ctx, ci, c, i)
}

func (w *warmAssign) assign(ctx context.Context, ci int, c *server.Client, i int) (time.Duration, error) {
	req := server.AssignRequest{Instrs: w.pool[i], K: assignK}
	t0 := time.Now()
	resp, err := c.Assign(ctx, req)
	el := time.Since(t0)
	res, err := okResult(resp, err)
	if err != nil {
		return el, err
	}
	r := wireReply(res)
	w.got[ci][i] = &r
	return el, nil
}

func (w *warmAssign) guard(_ phase, levels map[string]alloccache.LevelStats) error {
	if f, ok := hitFrac(levels, "assign"); !ok || f != 1 {
		return fmt.Errorf("guard: timed assign-level hit fraction %.4f (lookups %v), want 1", f, ok)
	}
	return nil
}

func (w *warmAssign) check(ctx context.Context) error {
	return parallelCheck(ctx, warmPool, func(i int) error {
		lib, err := parmem.AssignValues(ctx, toInstrs(w.pool[i]), parmem.AssignConfig{K: assignK})
		if err != nil {
			return fmt.Errorf("pool graph %d: library: %w", i, err)
		}
		want := libReply(lib, 0)
		for ci := range w.got {
			r := w.got[ci][i]
			if r == nil {
				continue
			}
			if err := r.sameAs(want); err != nil {
				return fmt.Errorf("pool graph %d, client %d: service != library: %w", i, ci, err)
			}
			if err := conflictFree(w.pool[i], r.copies); err != nil {
				return fmt.Errorf("pool graph %d, client %d: %w", i, ci, err)
			}
		}
		return nil
	})
}

func (w *warmAssign) copiesPerValue() float64 {
	var rs []reply
	for i := 0; i < warmPool; i++ {
		for ci := range w.got {
			if r := w.got[ci][i]; r != nil {
				rs = append(rs, *r)
				break
			}
		}
	}
	return copiesPerValue(rs)
}

// ---- cold-assign ----

const coldWarmup = 32 // warm-up requests per client

type coldAssign struct {
	seed uint64
	next atomic.Int64 // next stream index
	recs [][]coldRec  // per client
}

type coldRec struct {
	index int
	r     reply
}

func newColdAssign(seed uint64, clients int) *coldAssign {
	return &coldAssign{seed: seed, recs: make([][]coldRec, clients)}
}

func (w *coldAssign) setup(ctx context.Context, clients []*server.Client) error {
	return runCount(ctx, clients, coldWarmup, w.send)
}

func (w *coldAssign) send(ctx context.Context, ci int, c *server.Client) (time.Duration, error) {
	i := int(w.next.Add(1) - 1)
	req := server.AssignRequest{Instrs: coldGraph(w.seed, i), K: assignK}
	t0 := time.Now()
	resp, err := c.Assign(ctx, req)
	el := time.Since(t0)
	res, err := okResult(resp, err)
	if err != nil {
		return el, err
	}
	w.recs[ci] = append(w.recs[ci], coldRec{index: i, r: wireReply(res)})
	return el, nil
}

func (w *coldAssign) all() []coldRec {
	var out []coldRec
	for _, rs := range w.recs {
		out = append(out, rs...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out
}

func (w *coldAssign) guard(_ phase, levels map[string]alloccache.LevelStats) error {
	if f, ok := hitFrac(levels, "assign"); !ok || f != 0 {
		return fmt.Errorf("guard: timed assign-level hit fraction %.4f (lookups %v), want 0", f, ok)
	}
	return nil
}

func (w *coldAssign) check(ctx context.Context) error {
	recs := w.all()
	return parallelCheck(ctx, len(recs), func(k int) error {
		rec := recs[k]
		instrs := coldGraph(w.seed, rec.index)
		lib, err := parmem.AssignValues(ctx, toInstrs(instrs), parmem.AssignConfig{K: assignK})
		if err != nil {
			return fmt.Errorf("cold graph %d: library: %w", rec.index, err)
		}
		if err := rec.r.sameAs(libReply(lib, 0)); err != nil {
			return fmt.Errorf("cold graph %d: service != library: %w", rec.index, err)
		}
		if err := conflictFree(instrs, rec.r.copies); err != nil {
			return fmt.Errorf("cold graph %d: %w", rec.index, err)
		}
		return nil
	})
}

func (w *coldAssign) copiesPerValue() float64 {
	var rs []reply
	for _, rec := range w.all() {
		rs = append(rs, rec.r)
	}
	return copiesPerValue(rs)
}

// ---- edit-session ----

// editWarmup is the warm-up deltas per client. Fewer left the first ~3 s
// of the timed phase about 20 % slower than the rest, while the daemons'
// caches and the heap settled.
const editWarmup = 200

type editSession struct {
	sessions []*session
}

// session is one client's held program and everything it sent. The
// program is always the base with at most one edited instruction: each
// delta restores the previous edit and makes a new one, so the work per
// delta stays the same however long the session runs.
type session struct {
	name   string
	rng    *rand.Rand
	base   [][]int
	edited int   // index of the edited instruction, -1 for none
	held   reply // reply to the hold-assign
	deltas []delta
}

// delta is one accepted delta request and its reply.
type delta struct {
	changed []server.ChangedOp
	r       reply
	full    bool // the daemon fell back to a full recompile
}

func newEditSession(seed uint64, clients int) *editSession {
	w := &editSession{}
	for ci := 0; ci < clients; ci++ {
		w.sessions = append(w.sessions, &session{
			name:   fmt.Sprintf("edit-%d", ci),
			rng:    streamRand(seed, streamEdit, uint64(ci)),
			base:   editBase(),
			edited: -1,
		})
	}
	return w
}

func (w *editSession) setup(ctx context.Context, clients []*server.Client) error {
	for ci, s := range w.sessions {
		resp, err := clients[ci].Assign(ctx, server.AssignRequest{Instrs: s.base, K: editK, Hold: s.name})
		res, err := okResult(resp, err)
		if err != nil {
			return fmt.Errorf("holding session %s: %w", s.name, err)
		}
		s.held = wireReply(res)
	}
	return runCount(ctx, clients, editWarmup, w.send)
}

func (w *editSession) send(ctx context.Context, ci int, c *server.Client) (time.Duration, error) {
	s := w.sessions[ci]
	req := server.DeltaRequest{Base: s.name, Hold: s.name, Changed: s.nextChange()}
	t0 := time.Now()
	resp, err := c.Delta(ctx, req)
	el := time.Since(t0)
	res, err := okResult(resp, err)
	if err != nil {
		return el, err
	}
	s.edited = req.Changed[len(req.Changed)-1].Index
	d := delta{changed: req.Changed, r: wireReply(res)}
	if resp.Incremental != nil {
		d.full = resp.Incremental.Full
	}
	s.deltas = append(s.deltas, d)
	return el, nil
}

// nextChange restores the edited instruction, if any, and edits a new one.
func (s *session) nextChange() []server.ChangedOp {
	i, ops := localEdit(s.rng, s.base)
	var out []server.ChangedOp
	if s.edited >= 0 && s.edited != i {
		out = append(out, server.ChangedOp{Index: s.edited, Ops: s.base[s.edited]})
	}
	return append(out, server.ChangedOp{Index: i, Ops: ops})
}

// guard fails the phase when a delta fell back to a full recompile or the
// per-delta latency drifted.
func (w *editSession) guard(ph phase, _ map[string]alloccache.LevelStats) error {
	for _, s := range w.sessions {
		for j, d := range s.deltas {
			if d.full {
				return fmt.Errorf("guard: session %s delta %d was a full recompile", s.name, j)
			}
		}
	}
	return driftGuard(ph)
}

func (w *editSession) check(ctx context.Context) error {
	return parallelCheck(ctx, len(w.sessions), func(ci int) error {
		return w.sessions[ci].check(ctx)
	})
}

// maxDrift bounds how far the last quarter's p50 may move from the first
// quarter's in edit-session: the latency_p50_ms bound of BENCHMARK.json.
const maxDrift = 0.25

// driftGuard fails a phase whose per-delta latency drifted: the p50 of
// every client's last quarter against that of its first quarter.
func driftGuard(ph phase) error {
	var first, last []float64
	for _, l := range ph.lat {
		q := len(l) / 4
		first = append(first, l[:q]...)
		last = append(last, l[len(l)-q:]...)
	}
	if len(first) == 0 {
		return fmt.Errorf("guard: too few deltas to compare quarters")
	}
	a, b := percentile(first, 0.5), percentile(last, 0.5)
	fmt.Fprintf(os.Stderr, "perfbench: delta p50 %.3f ms in the first quarter, %.3f ms in the last\n", a, b)

	if d := b/a - 1; d > maxDrift || d < -maxDrift {
		return fmt.Errorf("guard: delta p50 drifted from %.3f ms (first quarter) to %.3f ms (last quarter)", a, b)
	}
	return nil
}

// check replays the session in process: every reply must equal the
// library's incremental result and be conflict-free, and the last must
// equal a cold assign of the final program.
func (s *session) check(ctx context.Context) error {
	cfg := parmem.AssignConfig{K: editK}
	cur := editBase()
	lib, err := parmem.AssignValuesIncremental(ctx, toInstrs(cur), cfg)
	if err != nil {
		return fmt.Errorf("session %s: library hold: %w", s.name, err)
	}
	if err := s.held.sameAs(libReply(lib.Alloc, 0)); err != nil {
		return fmt.Errorf("session %s: hold: service != library: %w", s.name, err)
	}
	for j, d := range s.deltas {
		var pd parmem.Delta
		for _, ch := range d.changed {
			cur[ch.Index] = ch.Ops
			pd.Changed = append(pd.Changed, parmem.ChangedInstruction{Index: ch.Index, Instr: parmem.Instruction(ch.Ops)})
		}
		if lib, err = parmem.AssignValuesDelta(ctx, lib, pd, cfg); err != nil {
			return fmt.Errorf("session %s delta %d: library: %w", s.name, j, err)
		}
		if err := d.r.sameAs(libReply(lib.Alloc, 0)); err != nil {
			return fmt.Errorf("session %s delta %d: service != library: %w", s.name, j, err)
		}
		if err := conflictFree(cur, d.r.copies); err != nil {
			return fmt.Errorf("session %s delta %d: %w", s.name, j, err)
		}
	}
	if len(s.deltas) == 0 {
		return nil
	}
	cold, err := parmem.AssignValues(ctx, toInstrs(cur), cfg)
	if err != nil {
		return fmt.Errorf("session %s: cold library: %w", s.name, err)
	}
	if err := s.deltas[len(s.deltas)-1].r.sameAs(libReply(cold, 0)); err != nil {
		return fmt.Errorf("session %s: incremental != cold: %w", s.name, err)
	}
	return nil
}

func (w *editSession) copiesPerValue() float64 {
	var rs []reply
	for _, s := range w.sessions {
		for _, d := range s.deltas {
			rs = append(rs, d.r)
		}
	}
	return copiesPerValue(rs)
}

// ---- compile ----

const compilePasses = 4 // warm-up passes over the sources per client

type compileWL struct {
	srcs []compileSource
	next []int
	got  [][]*reply // [client][source]: the last reply
	// simCycles is Σ Result.Cycles over the distinct programs, set by check.
	simCycles int64
}

func newCompile(seed uint64, clients int) *compileWL {
	w := &compileWL{srcs: compileSources(seed), next: make([]int, clients), got: make([][]*reply, clients)}
	for ci := range w.next {
		w.next[ci] = ci * len(w.srcs) / clients
		w.got[ci] = make([]*reply, len(w.srcs))
	}
	return w
}

func (w *compileWL) setup(ctx context.Context, clients []*server.Client) error {
	for i := range w.srcs {
		if _, err := w.compile(ctx, 0, clients[0], i); err != nil {
			return fmt.Errorf("compiling %s K=%d: %w", w.srcs[i].name, w.srcs[i].k, err)
		}
	}
	return runCount(ctx, clients, compilePasses*len(w.srcs), w.send)
}

func (w *compileWL) send(ctx context.Context, ci int, c *server.Client) (time.Duration, error) {
	i := w.next[ci]
	w.next[ci] = (i + 1) % len(w.srcs)
	return w.compile(ctx, ci, c, i)
}

func (w *compileWL) compile(ctx context.Context, ci int, c *server.Client, i int) (time.Duration, error) {
	req := server.CompileRequest{Src: w.srcs[i].src, K: w.srcs[i].k}
	t0 := time.Now()
	resp, err := c.Compile(ctx, req)
	el := time.Since(t0)
	res, err := okResult(resp, err)
	if err != nil {
		return el, err
	}
	r := wireReply(res)
	w.got[ci][i] = &r
	return el, nil
}

func (w *compileWL) guard(phase, map[string]alloccache.LevelStats) error { return nil }

func (w *compileWL) check(ctx context.Context) error {
	cycles := make([]int64, len(w.srcs))
	err := parallelCheck(ctx, len(w.srcs), func(i int) error {
		src := w.srcs[i]
		p, err := parmem.CompileCtx(ctx, src.src, parmem.Options{Modules: src.k})
		if err != nil {
			return fmt.Errorf("%s K=%d: library: %w", src.name, src.k, err)
		}
		want := libReply(p.Alloc, len(p.Sched.Words))
		for ci := range w.got {
			if r := w.got[ci][i]; r != nil {
				if err := r.sameAs(want); err != nil {
					return fmt.Errorf("%s K=%d, client %d: service != library: %w", src.name, src.k, ci, err)
				}
			}
		}
		var instrs [][]int
		for _, in := range p.Instructions() {
			instrs = append(instrs, []int(in))
		}
		if err := conflictFree(instrs, want.copies); err != nil {
			return fmt.Errorf("%s K=%d: %w", src.name, src.k, err)
		}
		res, err := p.RunCtx(ctx, parmem.RunOptions{})
		if err != nil {
			return fmt.Errorf("%s K=%d: simulator: %w", src.name, src.k, err)
		}
		if res.ScalarConflicts != 0 {
			return fmt.Errorf("%s K=%d: %d scalar conflicts", src.name, src.k, res.ScalarConflicts)
		}
		if src.spec != nil {
			if err := src.spec.Check(res); err != nil {
				return fmt.Errorf("%s K=%d: result check: %w", src.name, src.k, err)
			}
		}
		cycles[i] = res.Cycles
		return nil
	})
	for _, c := range cycles {
		w.simCycles += c
	}
	return err
}

func (w *compileWL) copiesPerValue() float64 {
	var rs []reply
	for i := range w.srcs {
		for ci := range w.got {
			if r := w.got[ci][i]; r != nil {
				rs = append(rs, *r)
				break
			}
		}
	}
	return copiesPerValue(rs)
}
