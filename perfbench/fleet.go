package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"parmem"
	"parmem/internal/alloccache"
	"parmem/internal/gateway"
	"parmem/internal/server"
	"parmem/internal/telemetry"
)

// fleet is an in-process parmemgw in front of two parmemd daemons, all on
// loopback TCP and each configured as its command configures it by default.
type fleet struct {
	daemons []*server.Server
	gw      *gateway.Gateway
}

const fleetDaemons = 2

// daemonConfig mirrors cmd/parmemd's flag defaults, including its
// always-on recorder without sinks.
func daemonConfig() server.Config {
	return server.Config{
		Addr:              "127.0.0.1:0",
		MaxInFlight:       8,
		MaxQueue:          0,
		PerConnInFlight:   4,
		MaxFrameBytes:     server.DefaultMaxFrame,
		MaxBatchItems:     64,
		DefaultDeadline:   10 * time.Second,
		MaxDeadline:       60 * time.Second,
		MaxBudgetNodes:    parmem.DefaultMaxBacktrackNodes,
		FrameTimeout:      10 * time.Second,
		Workers:           1,
		CacheCapacity:     0,
		Telemetry:         telemetry.New(),
		FlightLatency:     time.Second,
		FlightMaxCaptures: 32,
	}
}

// gatewayConfig mirrors cmd/parmemgw's flag defaults.
func gatewayConfig(backends []string) gateway.Config {
	return gateway.Config{
		Addr:           "127.0.0.1:0",
		Backends:       backends,
		MaxFrameBytes:  server.DefaultMaxFrame,
		FrameTimeout:   10 * time.Second,
		ProbeInterval:  500 * time.Millisecond,
		ProbeTimeout:   2 * time.Second,
		ForwardTimeout: 60 * time.Second,
		Telemetry:      telemetry.New(),
	}
}

func startFleet() (*fleet, error) {
	f := &fleet{}
	var addrs []string
	for i := 0; i < fleetDaemons; i++ {
		s, err := server.New(daemonConfig())
		if err != nil {
			f.close()
			return nil, fmt.Errorf("starting daemon: %w", err)
		}
		f.daemons = append(f.daemons, s)
		addrs = append(addrs, s.Addr())
	}
	gw, err := gateway.New(gatewayConfig(addrs))
	if err != nil {
		f.close()
		return nil, fmt.Errorf("starting gateway: %w", err)
	}
	f.gw = gw
	return f, nil
}

// dial opens n client connections to addr.
func dial(addr string, n int) ([]*server.Client, error) {
	var cs []*server.Client
	for i := 0; i < n; i++ {
		c, err := server.Dial(addr)
		if err != nil {
			closeClients(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeClients(cs []*server.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// close drains the gateway, then the daemons, and waits for all of them.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if f.gw != nil {
		errs = append(errs, f.gw.Drain(ctx))
	}
	for _, s := range f.daemons {
		errs = append(errs, s.Drain(ctx))
	}
	return errors.Join(errs...)
}

// cacheLevels sums the daemons' per-level cache counters.
func (f *fleet) cacheLevels() map[string]alloccache.LevelStats {
	out := map[string]alloccache.LevelStats{}
	for _, s := range f.daemons {
		st, ok := s.CacheStats()
		if !ok {
			continue
		}
		for lvl, ls := range st.Levels {
			acc := out[lvl]
			acc.Hits += ls.Hits
			acc.Misses += ls.Misses
			out[lvl] = acc
		}
	}
	return out
}

// cacheEntries sums the daemons' resident cache entries.
func (f *fleet) cacheEntries() int {
	n := 0
	for _, s := range f.daemons {
		if st, ok := s.CacheStats(); ok {
			n += st.Entries
		}
	}
	return n
}

// levelDelta returns after-before per level.
func levelDelta(before, after map[string]alloccache.LevelStats) map[string]alloccache.LevelStats {
	out := map[string]alloccache.LevelStats{}
	for lvl, a := range after {
		b := before[lvl]
		out[lvl] = alloccache.LevelStats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses}
	}
	return out
}

// hitFrac is hits/(hits+misses) at one level; ok is false when the level
// saw no lookups.
func hitFrac(d map[string]alloccache.LevelStats, level string) (frac float64, ok bool) {
	ls := d[level]
	n := ls.Hits + ls.Misses
	if n == 0 {
		return 0, false
	}
	return float64(ls.Hits) / float64(n), true
}
