package main

import (
	"fmt"
	"net"
	"strconv"

	"github.com/eplog/eplog"
	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/server"
)

// The block service runs with cmd/eplogserve's shipped defaults.
const (
	chunkSize   = 4096
	serveK      = 6
	serveM      = 2
	stripes     = 1024
	shards      = 4
	workers     = 2
	commitEvery = 256
	dirtyWindow = 128
)

// ssdRawBytes is the raw capacity eplogserve gives each simulated SSD:
// logical capacity (after the FTL's 15% overprovisioning) for the stripes
// plus an equal no-overwrite update area, with margin.
func ssdRawBytes(stripes int64) int64 {
	devChunks := stripes * 2
	return (int64(float64(devChunks)/0.85) + 64) * chunkSize
}

// hddChunks is the capacity eplogserve gives each simulated log HDD.
func hddChunks(stripes int64) int64 { return stripes * 8 }

// newDevices returns the simulated SSDs and log HDDs of an eplogserve-sized
// array.
func newDevices(stripes int64) (ssds, hdds []eplog.BlockDevice, err error) {
	ssds = make([]eplog.BlockDevice, serveK+serveM)
	for i := range ssds {
		if ssds[i], err = eplog.NewSimulatedSSD(ssdRawBytes(stripes)); err != nil {
			return nil, nil, err
		}
	}
	hdds = make([]eplog.BlockDevice, serveM)
	for i := range hdds {
		if hdds[i], err = eplog.NewSimulatedHDD(hddChunks(stripes), chunkSize); err != nil {
			return nil, nil, err
		}
	}
	return ssds, hdds, nil
}

// stack is a running block service plus the handles the benchmark reads its
// counters from. The raw device handles are the simulators themselves, so
// eplog.SSDStats and eplog.HDDStats work on them.
type stack struct {
	addr    string
	ssds    []eplog.BlockDevice
	hdds    []eplog.BlockDevice
	stats   func() core.Stats
	metrics func() obs.Snapshot
	// eng and devs are set on traced stacks only.
	eng  *engineShim
	devs []*devShim
	stop func() error
}

// arrayConfig is eplogserve's default array configuration.
func arrayConfig() eplog.Config {
	return eplog.Config{
		K:                  serveK,
		Stripes:            stripes,
		CommitEvery:        commitEvery,
		TrimOnCommit:       true,
		TraceEvents:        eplog.DefaultTraceEvents,
		Spans:              eplog.DefaultSpanTrees,
		Workers:            workers,
		Shards:             shards,
		WriteBehind:        true,
		DirtyWindowStripes: dirtyWindow,
	}
}

// startStack builds the array and serves it on a loopback port through the
// public API, exactly as eplogserve does. The zero BlockServeOptions select
// the same defaults as eplogserve's flags.
func startStack() (*stack, error) {
	ssds, hdds, err := newDevices(stripes)
	if err != nil {
		return nil, err
	}
	a, err := eplog.New(ssds, hdds, arrayConfig())
	if err != nil {
		return nil, err
	}
	srv, err := a.ServeBlocks("127.0.0.1:0", eplog.BlockServeOptions{})
	if err != nil {
		a.Close()
		return nil, err
	}
	return &stack{
		addr:    srv.Addr().String(),
		ssds:    ssds,
		hdds:    hdds,
		stats:   a.Stats,
		metrics: a.Metrics,
		stop: func() error {
			err := srv.Close()
			if cerr := a.Close(); err == nil {
				err = cerr
			}
			return err
		},
	}, nil
}

// startTracedStack assembles the same stack from core.New and server.Serve
// so that an engine shim sits between server and engine and a device shim
// wraps each simulator. It mirrors eplog.New: the same sink settings, the
// same per-device metric wrappers, the simulators' observers attached
// through the shims. The listener is not wrapped: the server's vectored
// writes need to reach a *net.TCPConn.
func startTracedStack(rec *recorder) (*stack, error) {
	ssds, hdds, err := newDevices(stripes)
	if err != nil {
		return nil, err
	}
	cfg := arrayConfig()
	sink := obs.NewSink(cfg.TraceEvents)
	sink.EnableSpans(obs.SpanConfig{Trees: cfg.Spans})
	var shims []*devShim
	wrap := func(role string, devs []eplog.BlockDevice) []device.Dev {
		out := make([]device.Dev, len(devs))
		for i, d := range devs {
			sh := newDevShim(d, role+strconv.Itoa(i), role == "ssd", rec)
			sh.SetObserver(sink, i)
			shims = append(shims, sh)
			out[i] = device.NewTraced(sh, role+strconv.Itoa(i), sink)
		}
		return out
	}
	mains, logs := wrap("ssd", ssds), wrap("hdd", hdds)
	e, err := core.New(mains, logs, core.Config{
		Obs:                sink,
		K:                  cfg.K,
		Stripes:            cfg.Stripes,
		CommitEvery:        cfg.CommitEvery,
		TrimOnCommit:       cfg.TrimOnCommit,
		Workers:            cfg.Workers,
		Shards:             cfg.Shards,
		WriteBehind:        cfg.WriteBehind,
		DirtyWindowStripes: cfg.DirtyWindowStripes,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	eng := &engineShim{Engine: e, core: e, rec: rec}
	srv := server.Serve(ln, eng, server.Options{Sink: sink, SpanShard: e.NumShards()})
	return &stack{
		addr:    srv.Addr().String(),
		ssds:    ssds,
		hdds:    hdds,
		stats:   e.Stats,
		metrics: sink.Snapshot,
		eng:     eng,
		devs:    shims,
		stop: func() error {
			err := srv.Close()
			if cerr := e.Close(); err == nil {
				err = cerr
			}
			return err
		},
	}, nil
}

// devCounters sums the simulators' endurance and activity counters.
type devCounters struct {
	ssdHostWrites, ssdGCOps, ssdPagesMoved int64
	hddStreamed, hddPositioned             int64
}

func readDevCounters(ssds, hdds []eplog.BlockDevice) devCounters {
	var c devCounters
	for _, d := range ssds {
		w, gc, moved, _, _, _ := eplog.SSDStats(d)
		c.ssdHostWrites += w
		c.ssdGCOps += gc
		c.ssdPagesMoved += moved
	}
	for _, d := range hdds {
		_, _, streamed, positioned, _ := eplog.HDDStats(d)
		c.hddStreamed += streamed
		c.hddPositioned += positioned
	}
	return c
}

func (c devCounters) minus(o devCounters) devCounters {
	return devCounters{
		ssdHostWrites: c.ssdHostWrites - o.ssdHostWrites,
		ssdGCOps:      c.ssdGCOps - o.ssdGCOps,
		ssdPagesMoved: c.ssdPagesMoved - o.ssdPagesMoved,
		hddStreamed:   c.hddStreamed - o.hddStreamed,
		hddPositioned: c.hddPositioned - o.hddPositioned,
	}
}

// statsMinus returns the engine counters accumulated since o.
func statsMinus(s, o core.Stats) core.Stats {
	return core.Stats{
		DataWriteChunks:   s.DataWriteChunks - o.DataWriteChunks,
		ParityWriteChunks: s.ParityWriteChunks - o.ParityWriteChunks,
		LogChunkWrites:    s.LogChunkWrites - o.LogChunkWrites,
		LogBytes:          s.LogBytes - o.LogBytes,
		LogStripes:        s.LogStripes - o.LogStripes,
		LogStripeMembers:  s.LogStripeMembers - o.LogStripeMembers,
		AbsorbedChunks:    s.AbsorbedChunks - o.AbsorbedChunks,
		FullStripeWrites:  s.FullStripeWrites - o.FullStripeWrites,
		Commits:           s.Commits - o.Commits,
		CommitReadChunks:  s.CommitReadChunks - o.CommitReadChunks,
		CommitWriteChunks: s.CommitWriteChunks - o.CommitWriteChunks,
		Requests:          s.Requests - o.Requests,
	}
}
