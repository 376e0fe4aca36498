package core

import (
	"errors"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/workpool"
)

// Concurrency model
// -----------------
//
// Metadata mutation is guarded per stripe-group shard (see shard.go): a
// shard's RWMutex covers its location-map entries, allocator partitions,
// buffers, log-stripe bookkeeping, and stats, so operations on different
// shards run fully in parallel while the write/commit ordering invariants
// of the single-threaded engine carry over unchanged within each shard.
// With Shards=1 this degenerates to the old single coarse mutex.
//
// What runs outside the critical path of those locks is the expensive,
// embarrassingly parallel work inside one operation: Reed-Solomon
// encode/reconstruct, chunk memcpy, and per-device span I/O in the
// direct-stripe, log-stripe flush, parity-commit fold, and rebuild paths.
// (Reads issue their chunks inline on one span per op: a span issues every
// I/O at its start, so a fan-out would not change their end time.) Those
// phases are expressed as task lists and handed to fanOut,
// which runs them on a bounded workpool of cfg.Workers goroutines. Pool
// tasks never touch engine metadata (inputs are captured before the fan-
// out; outputs land in per-task slots or atomics folded back under the
// lock), and they never take a shard lock — so the lock order is strictly
// shard locks (ascending index) -> device.Locked/erasure.Cache, with no
// cycles.
//
// Virtual-time determinism: with workers <= 1, fanOut runs the tasks
// serially, in order, on the caller's span — bit-for-bit the behavior
// (and virtual-time accounting) of the single-threaded engine. With
// workers > 1 each task gets a sub-span starting at the parent's start
// and the parent is extended to the slowest sub-span's end; because a
// span issues every operation at its start time and keeps the max
// completion, the merged end time is identical to the serial result
// whenever the tasks touch disjoint devices (which the call sites
// guarantee). Byte counts and stats totals are order-independent either
// way.

// fanOut runs one operation's phase tasks on the engine's worker pool.
// Each task receives a span to issue device I/O on. Tasks must not touch
// engine metadata or take shard locks; they may only use their span, the
// devices handed to them, and per-task result slots.
func (e *EPLog) fanOut(span *device.Span, tasks []func(*device.Span) error) error {
	if e.workers <= 1 || len(tasks) <= 1 {
		for _, t := range tasks {
			if err := t(span); err != nil {
				return err
			}
		}
		return nil
	}
	subs := make([]*device.Span, len(tasks))
	wrapped := make([]func() error, len(tasks))
	for i, t := range tasks {
		sub := device.NewSpan(span.Start())
		subs[i] = sub
		task := t
		wrapped[i] = func() error { return task(sub) }
	}
	err := workpool.Run(e.workers, wrapped)
	// Merge even on error so the span reflects the I/O actually issued.
	for _, sub := range subs {
		span.Extend(sub.End())
	}
	return err
}

// tolerantWrite issues one chunk write on the span, tolerating a failed
// device: ErrFailed is cleared because the chunk remains recoverable
// through its protecting stripe. Unlike writeData/writeParity it touches
// no stats, so it is safe inside pool tasks.
func tolerantWrite(span *device.Span, dev device.Dev, chunk int64, data []byte) error {
	if err := span.Write(dev, chunk, data); err != nil {
		if !errors.Is(err, device.ErrFailed) {
			return err
		}
		span.ClearErr()
	}
	return nil
}

// lockDevs wraps every device in a per-device mutex (device.Locked),
// returning a fresh slice.
func lockDevs(devs []device.Dev) []device.Dev {
	out := make([]device.Dev, len(devs))
	for i, d := range devs {
		out[i] = device.NewLocked(d)
	}
	return out
}
