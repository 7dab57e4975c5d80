package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"parmem"
	"parmem/internal/duplication"
	"parmem/internal/server"
)

// reply is the part of a response the output checks need, kept compactly
// so recording it costs the timed loop next to nothing and a long run's
// replies do not dominate the process's memory.
type reply struct {
	sum summary
	// copies holds one module set per value id, bit m for module m (0:
	// value absent); nil for compile replies, which carry no placement.
	// Every workload runs at K <= 8, so a byte holds a set.
	copies []uint8
	// wide reports a module index past 7, which a byte cannot hold.
	wide bool
}

// summary is the Table 1 shape of an allocation as the daemon reports it.
type summary struct {
	Values, SingleCopy, MultiCopy, TotalCopies, Atoms, Words int
	Degraded                                                 bool
}

// okResult returns the response's allocation summary, or an error for
// anything but a well-formed OK.
func okResult(resp server.Response, err error) (*server.AllocSummary, error) {
	if err != nil {
		return nil, err
	}
	if resp.Code != server.CodeOK {
		return nil, fmt.Errorf("%s: %s", resp.Code, resp.Error)
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("OK response without a result")
	}
	return resp.Result, nil
}

func wireReply(r *server.AllocSummary) reply {
	out := reply{sum: summary{Values: r.Values, SingleCopy: r.SingleCopy, MultiCopy: r.MultiCopy,
		TotalCopies: r.TotalCopies, Atoms: r.Atoms, Words: r.Words, Degraded: r.Degraded}}
	if len(r.Copies) == 0 {
		return out
	}
	out.copies = make([]uint8, maxKey(r.Copies)+1)
	for id, mods := range r.Copies {
		for _, m := range mods {
			if m < 0 || m > 7 {
				out.wide = true
				continue
			}
			out.copies[id] |= 1 << m
		}
	}
	return out
}

// libReply is what the daemon would report for al; words is the schedule
// length of a compile (0 for assigns).
func libReply(al parmem.Allocation, words int) reply {
	out := reply{sum: summary{Values: al.SingleCopy + al.MultiCopy, SingleCopy: al.SingleCopy,
		MultiCopy: al.MultiCopy, TotalCopies: al.TotalCopies, Atoms: al.Atoms, Words: words,
		Degraded: al.Degraded}}
	out.copies = make([]uint8, maxKey(al.Copies)+1)
	for id, s := range al.Copies {
		if s > 0xff {
			out.wide = true
		}
		out.copies[id] = uint8(s)
	}
	return out
}

func maxKey[V any](m map[int]V) int {
	top := 0
	for k := range m {
		if k > top {
			top = k
		}
	}
	return top
}

// sameAs reports how the daemon's reply r differs from the library's
// reply lib; a reply without copies is compared on its summary alone.
func (r reply) sameAs(lib reply) error {
	if r.sum != lib.sum {
		return fmt.Errorf("summary %+v, library %+v", r.sum, lib.sum)
	}
	if r.wide || lib.wide {
		return fmt.Errorf("module index past 7 in a K <= 8 workload")
	}
	if r.copies == nil {
		return nil
	}
	n := len(r.copies)
	if len(lib.copies) > n {
		n = len(lib.copies)
	}
	for id := 0; id < n; id++ {
		if at(r.copies, id) != at(lib.copies, id) {
			return fmt.Errorf("value %d on modules %v, library %v", id,
				at(r.copies, id).Modules(), at(lib.copies, id).Modules())
		}
	}
	return nil
}

func at(s []uint8, i int) duplication.ModSet {
	if i < len(s) {
		return duplication.ModSet(s[i])
	}
	return 0
}

// conflictFree checks that every instruction can fetch all its operands in
// one cycle under copies.
func conflictFree(instrs [][]int, copies []uint8) error {
	m := make(parmem.Copies, len(copies))
	for id, s := range copies {
		if s != 0 {
			m[id] = duplication.ModSet(s)
		}
	}
	for i, ops := range instrs {
		if !parmem.ConflictFree(ops, m) {
			return fmt.Errorf("instruction %d %v has a module conflict", i, ops)
		}
	}
	return nil
}

func toInstrs(ops [][]int) []parmem.Instruction {
	out := make([]parmem.Instruction, len(ops))
	for i, o := range ops {
		out[i] = parmem.Instruction(o)
	}
	return out
}

// parallelCheck runs check(i) for i in [0,n) on one goroutine per CPU and
// returns the first error.
func parallelCheck(ctx context.Context, n int, check func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if first != nil || next >= n || ctx.Err() != nil {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				if err := check(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if first == nil {
		first = ctx.Err()
	}
	return first
}

// copiesPerValue is Σ TotalCopies / Σ values over replies.
func copiesPerValue(rs []reply) float64 {
	var copies, values int
	for _, r := range rs {
		copies += r.sum.TotalCopies
		values += r.sum.Values
	}
	if values == 0 {
		return 0
	}
	return float64(copies) / float64(values)
}
