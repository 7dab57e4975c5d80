package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"parmem/internal/server"
)

// phase is the outcome of one closed-loop phase: every client sends its
// next request only after the previous one completed.
type phase struct {
	// lat holds each client's latencies in send order, in ms; a failed or
	// shed request is +Inf.
	lat       [][]float64
	attempted int
	ok        int
	firstErr  error
	wall      time.Duration
	cpu       time.Duration
	// steal is the share of the machine's CPU time the hypervisor gave to
	// other guests during the phase: a diagnostic for noisy runs.
	steal float64
}

// sender issues client ci's next request on c and returns its latency.
// Work that prepares the request (input generation) happens before the
// clock starts; recording the response for the later checks happens
// after it stops.
type sender func(ctx context.Context, ci int, c *server.Client) (time.Duration, error)

// runPhase drives every client in a closed loop until d has elapsed.
func runPhase(ctx context.Context, clients []*server.Client, d time.Duration, send sender) phase {
	ph := phase{lat: make([][]float64, len(clients))}
	errs := make([]error, len(clients))
	oks := make([]int, len(clients))
	cpu0 := cpuTime()
	steal0, total0 := stealTicks()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *server.Client) {
			defer wg.Done()
			lat := make([]float64, 0, 4096)
			for time.Now().Before(deadline) {
				el, err := send(ctx, ci, c)
				if err != nil {
					if errs[ci] == nil {
						errs[ci] = err
					}
					lat = append(lat, math.Inf(1))
					continue
				}
				oks[ci]++
				lat = append(lat, float64(el)/float64(time.Millisecond))
			}
			ph.lat[ci] = lat
		}(ci, c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	if steal1, total1 := stealTicks(); total1 > total0 {
		ph.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	for ci := range clients {
		ph.attempted += len(ph.lat[ci])
		ph.ok += oks[ci]
		if ph.firstErr == nil {
			ph.firstErr = errs[ci]
		}
	}
	return ph
}

// merge appends o's requests to ph's, client by client.
func (ph phase) merge(o phase) phase {
	if ph.lat == nil {
		return o
	}
	for ci := range ph.lat {
		ph.lat[ci] = append(ph.lat[ci], o.lat[ci]...)
	}
	ph.attempted += o.attempted
	ph.ok += o.ok
	ph.wall += o.wall
	ph.cpu += o.cpu
	if ph.firstErr == nil {
		ph.firstErr = o.firstErr
	}
	return ph
}

// all returns every latency of the phase in one slice.
func (ph phase) all() []float64 {
	var out []float64
	for _, l := range ph.lat {
		out = append(out, l...)
	}
	return out
}

func (ph phase) throughput() float64 { return float64(ph.ok) / ph.wall.Seconds() }

func (ph phase) okFrac() float64 {
	if ph.attempted == 0 {
		return 0
	}
	return float64(ph.ok) / float64(ph.attempted)
}

func (ph phase) cpuPerReq() float64 {
	if ph.attempted == 0 {
		return 0
	}
	return float64(ph.cpu) / float64(time.Millisecond) / float64(ph.attempted)
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs;
// +Inf entries — failures — sort last, so a percentile that reaches into
// the failures is +Inf.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median of xs (mean of the middle pair for even lengths).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks returns the machine's steal and total CPU ticks from
// /proc/stat (zeros when unavailable).
func stealTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// peakRSSMiB reads the process's VmHWM from /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
