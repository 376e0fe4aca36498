package main

import (
	"fmt"
	"hash/fnv"

	"github.com/eplog/eplog"
	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/server"
	"github.com/eplog/eplog/internal/workload"
)

// replayEpoch starts the replay's timed part beyond any device-clock
// backlog of the precondition, as the experiment harness does.
const replayEpoch = 1e5

// reconcileResult is the outcome of replaying a net run's op log.
type reconcileResult struct {
	mismatches   int64   // read checksums that differ from the live run
	virtualKIOPS float64 // timed ops per virtual second / 1000
	firstErr     error   // the first mismatch, for the log
}

// reconcile replays every connection's logged ops serially, in process, on
// the serial engine over eplogserve-sized SSD and HDD simulators, with
// synchronous (queue depth 1) virtual-time accounting. Connections own
// disjoint ranges, so all preconditions followed by each connection's
// timed ops in turn is a valid serialization of the live run. Every read
// checksum must reproduce and the replay's byte counters must equal the
// client-observed ones, as server.SoakReport.Reconcile demands. The
// virtual time of the timed ops gives the op stream's throughput on the
// paper's device models (Experiment 5's metric).
func reconcile(conns []*connResult) (*reconcileResult, error) {
	ssds, hdds, err := newDevices(stripes)
	if err != nil {
		return nil, err
	}
	toDev := func(ds []eplog.BlockDevice) []device.Dev {
		out := make([]device.Dev, len(ds))
		for i, d := range ds {
			out[i] = d
		}
		return out
	}
	e, err := core.New(toDev(ssds), toDev(hdds), core.Config{
		K:            serveK,
		Stripes:      stripes,
		CommitEvery:  commitEvery,
		TrimOnCommit: true,
	})
	if err != nil {
		return nil, fmt.Errorf("reconcile: replay engine: %w", err)
	}
	defer e.Close()

	res := &reconcileResult{}
	var wantW, wantR, gotW, gotR int64
	for _, c := range conns {
		gotW += c.log.BytesWritten
		gotR += c.log.BytesRead
	}
	buf := make([]byte, serveK*chunkSize)
	now := 0.0
	var timedOps int64
	replay := func(ci, oi int, op *server.SoakOp) error {
		p := buf[:op.Chunks*chunkSize]
		var err error
		if op.Kind == workload.Read {
			if now, err = e.ReadChunks(now, op.LBA, p); err != nil {
				return fmt.Errorf("reconcile: conn %d op %d: replay read at %d: %w", ci, oi, op.LBA, err)
			}
			h := fnv.New64a()
			h.Write(p)
			if sum := h.Sum64(); sum != op.Sum {
				res.mismatches++
				if res.firstErr == nil {
					res.firstErr = fmt.Errorf("reconcile: conn %d op %d: read at %d: live sum %#x, replay sum %#x",
						ci, oi, op.LBA, op.Sum, sum)
				}
			}
			wantR += int64(len(p))
			return nil
		}
		workload.Fill(p, op.Seed)
		if now, err = e.WriteChunks(now, op.LBA, p); err != nil {
			return fmt.Errorf("reconcile: conn %d op %d: replay write at %d: %w", ci, oi, op.LBA, err)
		}
		wantW += int64(len(p))
		return nil
	}
	for ci, c := range conns {
		for oi := 0; oi < c.pre; oi++ {
			if err := replay(ci, oi, &c.log.Ops[oi]); err != nil {
				return nil, err
			}
		}
	}
	now = replayEpoch
	for ci, c := range conns {
		for oi := c.pre; oi < len(c.log.Ops); oi++ {
			if err := replay(ci, oi, &c.log.Ops[oi]); err != nil {
				return nil, err
			}
			timedOps++
		}
	}
	if elapsed := now - replayEpoch; elapsed > 0 {
		res.virtualKIOPS = float64(timedOps) / elapsed / 1000
	}
	if wantW != gotW || wantR != gotR {
		res.mismatches++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("reconcile: byte counters diverge: client saw %d written / %d read, serial replay %d / %d",
				gotW, gotR, wantW, wantR)
		}
	}
	return res, nil
}
