package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/server"
	"github.com/eplog/eplog/internal/wire"
)

// netConns is the number of client connections: one per CPU of the 2-CPU
// reference host, each driven by one goroutine.
const netConns = 2

// ageOps is the number of update-mix ops each connection runs after the
// set-up and before the timed window, enough that the simulated SSDs
// collect garbage throughout the window.
const ageOps = 12000

// netReadRate is net-read's fixed arrival rate in ops/s, about a quarter
// of the closed-loop capacity of the 2-CPU reference host for the same mix
// (41000 ops/s). At half that capacity the host's varying CPU steal pushed
// the server near saturation in some runs, and latency from due time
// varied by a factor of three between runs.
const netReadRate = 10000

// netWorkload describes one network workload.
type netWorkload struct {
	name      string
	readShare bool    // seven in eight ops are reads
	rate      float64 // open-loop arrival rate in ops/s; 0 runs a closed loop
	depth     int     // pipeline depth per connection
	// flushEvery is the op cadence of FLUSH barriers per connection.
	flushEvery int
}

var (
	// net-update flushes at eplogsoak's default cadence.
	netUpdate = netWorkload{name: "net-update", depth: 16, flushEvery: 113}
	// net-read's in-flight bound is the server's per-connection queue
	// depth, so the client never holds back an op the server would take.
	// It flushes every 32 ops so that its flush percentiles rest on
	// thousands of samples at its low rate.
	netRead = netWorkload{name: "net-read", readShare: true, rate: netReadRate, depth: 128, flushEvery: 32}
)

// netRun is the outcome of one net workload run.
type netRun struct {
	w      netWorkload
	setups []float64     // seconds per set-up
	window time.Duration // the timed window, drain excluded
	conns  []*connResult
	stats  core.Stats // engine counters over the window
	dev    devCounters
	m0, m1 obs.Snapshot
	rt     runtimeDelta
	rss    float64

	// Traced runs only.
	rec                *recorder
	devs               []*devShim
	locks, rdLocks     int64
	window0, windowEnd int64 // clock bounds of the timed window, drain included
}

// netSetup is a running stack with its connections preconditioned.
type netSetup struct {
	st      *stack
	clients []*server.Client
	drivers []*connDriver
	res     []*connResult
	stat    wire.Stat
}

func (s *netSetup) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	return s.st.stop()
}

// setupNet starts the stack, dials the connections and preconditions the
// whole LBA space with full-stripe writes.
func setupNet(w netWorkload, seed int64, clk clock, rec *recorder) (*netSetup, error) {
	var st *stack
	var err error
	if rec != nil {
		st, err = startTracedStack(rec)
	} else {
		st, err = startStack()
	}
	if err != nil {
		return nil, err
	}
	s := &netSetup{st: st}
	fail := func(err error) (*netSetup, error) {
		s.close()
		return nil, err
	}
	for i := 0; i < netConns; i++ {
		c, err := server.Dial(st.addr, 0)
		if err != nil {
			return fail(err)
		}
		s.clients = append(s.clients, c)
	}
	if s.stat, err = s.clients[0].Stat(); err != nil {
		return fail(err)
	}
	perConn := s.stat.Stripes / netConns * int64(s.stat.K)
	for i, c := range s.clients {
		r := &connResult{log: server.ConnLog{Lo: int64(i) * perConn, Chunks: perConn, Seed: seed<<8 + int64(i)}}
		s.res = append(s.res, r)
		s.drivers = append(s.drivers, newConnDriver(c, clk, r, w.depth, rec != nil))
	}
	if err := parallel(s.drivers, func(d *connDriver) error { return d.precondition() }); err != nil {
		return fail(err)
	}
	return s, nil
}

// parallel runs f on every driver concurrently and returns the first error.
func parallel(ds []*connDriver, f func(*connDriver) error) error {
	errs := make([]error, len(ds))
	var wg sync.WaitGroup
	wg.Add(len(ds))
	for i, d := range ds {
		go func(i int, d *connDriver) {
			defer wg.Done()
			errs[i] = f(d)
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("conn %d: %w", i, err)
		}
	}
	return nil
}

// runNet sets the stack up nSetups times (keeping the last), ages the SSDs,
// then drives the workload for the window and collects its counters. Each
// set-up is timed; the discarded ones are torn down and their memory
// returned before the next. Ageing is not part of the set-up time.
func runNet(w netWorkload, seed int64, window time.Duration, nSetups int, traced bool) (*netRun, error) {
	clk := newClock()
	var rec *recorder
	if traced {
		rec = newRecorder()
		clk = rec.clk
	}
	run := &netRun{w: w, rec: rec}
	var s *netSetup
	for i := 0; i < nSetups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			s = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if s, err = setupNet(w, seed, clk, rec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
	}
	if err := parallel(s.drivers, func(d *connDriver) error { return d.age(ageOps) }); err != nil {
		s.close()
		return nil, fmt.Errorf("ageing: %w", err)
	}
	st := s.st
	run.conns = s.res

	var interval int64
	if w.rate > 0 {
		interval = int64(float64(netConns) * 1e9 / w.rate)
	}
	s0, d0, m0 := st.stats(), readDevCounters(st.ssds, st.hdds), st.metrics()
	if st.eng != nil {
		run.locks, run.rdLocks = st.eng.core.ShardLockAcquisitions(), st.eng.core.ReadLockAcquisitions()
		run.devs = st.devs
	}
	rt0 := readRuntime()
	if rec != nil {
		rec.on.Store(true)
	}
	start := clk.now()
	srcs := make(map[*connDriver]*opSource, len(s.drivers))
	for _, d := range s.drivers {
		src, err := newOpSource(&d.res.log, w.readShare)
		if err != nil {
			s.close()
			return nil, err
		}
		srcs[d] = src
	}
	err := parallel(s.drivers, func(d *connDriver) error {
		return d.run(srcs[d], start, start+int64(window), interval, w.flushEvery)
	})
	if rec != nil {
		rec.on.Store(false)
	}
	run.rt = readRuntime().since(rt0)
	run.window0, run.window = start, window
	for _, r := range run.conns {
		run.windowEnd = max(run.windowEnd, r.end)
	}
	run.stats = statsMinus(st.stats(), s0)
	run.dev = readDevCounters(st.ssds, st.hdds).minus(d0)
	run.m0, run.m1 = m0, st.metrics()
	if st.eng != nil {
		run.locks = st.eng.core.ShardLockAcquisitions() - run.locks
		run.rdLocks = st.eng.core.ReadLockAcquisitions() - run.rdLocks
	}
	run.rss = peakRSSMiB()
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	return run, nil
}

// netTotals sums the connections' window results.
type netTotals struct {
	ops, attempted, failed, userBytes int64
	write, read, flush                windowed
	lag                               sample
	done                              [subWindows]int64
}

func (r *netRun) totals() netTotals {
	var t netTotals
	for _, c := range r.conns {
		t.ops += c.ops
		t.attempted += c.attempted
		t.failed += c.failed
		t.userBytes += c.userBytes
		t.write = t.write.merge(c.write)
		t.read = t.read.merge(c.read)
		t.flush = t.flush.merge(c.flush)
		t.lag = append(t.lag, c.lag...)
		for k := range t.done {
			t.done[k] += c.done[k]
		}
	}
	return t
}

// opsPerSec is the median over sub-windows of data ops completed per
// second.
func (r *netRun) opsPerSec(t netTotals) float64 {
	sub := r.window.Seconds() / subWindows
	var rates []float64
	for _, n := range t.done {
		rates = append(rates, float64(n)/sub)
	}
	return median(rates)
}
