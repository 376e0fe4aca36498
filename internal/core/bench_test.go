package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// benchEngine builds a serial 8-device (k=6, m=2) engine over RAM devices
// with 4KiB chunks, sized so steady-state updates never run out of log or
// SSD space between commits.
func benchEngine(tb testing.TB, cfg Config) *EPLog {
	tb.Helper()
	const (
		n, k    = 8, 6
		chunk   = 4096
		stripes = 64
	)
	cfg.K = k
	cfg.Stripes = stripes
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(stripes*8, chunk)
	}
	logs := make([]device.Dev, n-k)
	for i := range logs {
		logs[i] = device.NewMem(16384, chunk)
	}
	e, err := New(devs, logs, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkSteadyStateUpdate measures the elastic-logging update path plus
// its periodic parity commits on a serial engine: single-chunk updates to
// non-virgin stripes, CommitEvery folding the dirty stripes back. With the
// buffer arena, engine scratch and span recycling this path performs no
// heap allocation in steady state — the allocs/op column is the proof.
func BenchmarkSteadyStateUpdate(b *testing.B) {
	e := benchEngine(b, Config{CommitEvery: 32})
	const chunk = 4096
	data := make([]byte, chunk)
	rand.New(rand.NewSource(1)).Read(data)
	// Prime: fill every stripe so updates hit the logging path, then one
	// commit so the engine is in its recurring state.
	full := make([]byte, e.geo.K*chunk)
	rand.New(rand.NewSource(2)).Read(full)
	for s := int64(0); s < e.geo.Stripes; s++ {
		if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), full); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Commit(); err != nil {
		b.Fatal(err)
	}
	lbas := rand.New(rand.NewSource(3)).Perm(int(e.geo.Chunks()))
	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := int64(lbas[i%len(lbas)])
		if _, err := e.WriteChunks(0, lba, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectStripeWrite measures full-stripe new writes (data +
// parity straight to home locations), the other pooled write path.
func BenchmarkDirectStripeWrite(b *testing.B) {
	e := benchEngine(b, Config{})
	const chunk = 4096
	full := make([]byte, e.geo.K*chunk)
	rand.New(rand.NewSource(4)).Read(full)
	b.SetBytes(int64(len(full)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := int64(i) % e.geo.Stripes
		// Keep the stripe virgin so every iteration takes the direct path.
		e.virgin[s] = true
		if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), full); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSteadyStateUpdateAllocFree pins the zero-allocation property of the
// one batched executor in the regular test suite, so a regression fails
// tests rather than only showing up in benchmark output. The matrix runs
// {inline commit, write-behind} x {1, 4 shards} x {single op, 32-op
// batch} x {write, read}, plus 32-op batches whose ops all fall in one
// shard group of a 2-shard engine. Single ops and one-group batches must
// not allocate at all; a batch spread over several shard groups may
// allocate once per goroutine it starts (one per group beyond the first).
//
// Observability runs at full tilt — metrics, trace events, and causal
// spans at the default sampling — so the flight recorder is covered by
// the same guarantee. The span ring is kept small enough that the warmup
// loop wraps it, putting the recorder into its recycling steady state
// before counting. With the background group-commit scheduler running
// (write-behind, or several shards) the foreground enqueue (CAS plus a
// buffered channel send) and the background fold (same pooled commit
// path) both stay allocation-free; a bounded dirty window lets the
// log-stripe freelist reach its recycling steady state, where an
// unbounded lag behind the fold would keep allocating stripe records.
func TestSteadyStateUpdateAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short race runs")
	}
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts at random, so the batch scratch pool cannot stay warm")
	}
	const batch = 32
	for _, mode := range []struct {
		name        string
		writeBehind bool
	}{
		{"inline-commit", false},
		{"write-behind", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for _, in := range []struct {
				shards int
				call   string // "op", "batch" (spread over every shard) or "group" (one shard)
			}{
				{1, "op"}, {1, "batch"},
				{4, "op"}, {4, "batch"},
				{2, "group"},
			} {
				sink := obs.NewSink(256)
				sink.EnableSpans(obs.SpanConfig{Trees: 16, Sampling: obs.DefaultSpanSampling})
				cfg := Config{CommitEvery: 8, Obs: sink, WriteBehind: mode.writeBehind, Shards: in.shards}
				if mode.writeBehind || in.shards > 1 {
					cfg.DirtyWindowStripes = 16
				}
				e := benchEngine(t, cfg)
				const chunk = 4096
				k := int64(e.geo.K)
				full := make([]byte, k*chunk)
				for s := int64(0); s < e.geo.Stripes; s++ {
					if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), full); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Commit(); err != nil {
					t.Fatal(err)
				}
				// Single-chunk ops over a moving window: stride-7 LBAs
				// spread a batch over every shard, while "group" keeps
				// every op on stripes of shard 0.
				payload := make([]byte, batch*chunk)
				wops := make([]BatchOp, batch)
				rops := make([]ReadOp, batch)
				base := int64(0)
				lbaOf := func(j int) int64 {
					if in.call == "group" {
						s := (base + int64(j)*int64(in.shards)) % e.geo.Stripes
						s -= s % int64(in.shards)
						return s*k + int64(j)%k
					}
					return (base + int64(j)*7) % e.geo.Chunks()
				}
				steps := map[string]func(){
					"write": func() {
						if in.call == "op" {
							if _, err := e.WriteChunks(0, lbaOf(0), payload[:chunk]); err != nil {
								t.Fatal(err)
							}
						} else {
							for j := range wops {
								wops[j] = BatchOp{LBA: lbaOf(j), Data: payload[j*chunk : (j+1)*chunk]}
							}
							e.WriteBatch(wops)
							for j := range wops {
								if wops[j].Err != nil {
									t.Fatal(wops[j].Err)
								}
							}
						}
						base += 7
					},
					"read": func() {
						if in.call == "op" {
							if _, err := e.ReadChunks(0, lbaOf(0), payload[:chunk]); err != nil {
								t.Fatal(err)
							}
						} else {
							for j := range rops {
								rops[j] = ReadOp{LBA: lbaOf(j), Buf: payload[j*chunk : (j+1)*chunk]}
							}
							e.ReadBatch(rops)
							for j := range rops {
								if rops[j].Err != nil {
									t.Fatal(rops[j].Err)
								}
							}
						}
						base += 7
					},
				}
				// One allocation per goroutine a spread batch starts: one
				// per shard group beyond the first.
				bound := 0.0
				if in.call == "batch" {
					bound = float64(e.NumShards() - 1)
				}
				for _, kind := range []string{"write", "read"} {
					t.Run(fmt.Sprintf("shards=%d/%s/%s", in.shards, in.call, kind), func(t *testing.T) {
						step := steps[kind]
						// Warm the pools across many commit cycles. Background
						// folds vary in size with scheduling, so the span
						// recorders' node freelists take a while to reach
						// their high-water mark.
						for i := 0; i < 1024; i++ {
							step()
						}
						if avg := testing.AllocsPerRun(256, step); avg > bound {
							t.Errorf("steady-state %s allocates %.2f objects per call, want <= %v", kind, avg, bound)
						}
					})
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
