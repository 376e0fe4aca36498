package main

import (
	"sync"
	"sync/atomic"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/server"
)

// callKind names an engine entry point the shim times.
type callKind uint8

const (
	callWriteBatch callKind = iota
	callReadBatch
	callFlush
	callCommit
	numCallKinds
)

var callNames = [numCallKinds]string{"WriteBatch", "ReadBatch", "Flush", "Commit"}

// engineCall is one timed call into the engine carrying n ops.
type engineCall struct {
	kind       callKind
	start, end int64
	n          int32
}

// engineOp is one op of a batched engine call, for joining to the client
// request that carried it.
type engineOp struct {
	lba  int64
	call int32
	read bool
}

// devSpan is one timed device call.
type devSpan struct {
	dev        int16
	op         uint8 // 'r', 'w' or 't'
	start, end int64
}

// maxDevSpans bounds the device spans kept for the span file; counts and
// busy time cover every call regardless.
const maxDevSpans = 100000

// recorder keeps the traced run's spans in memory. Recording is on only
// during the timed window.
type recorder struct {
	clk clock
	on  atomic.Bool

	mu    sync.Mutex
	calls []engineCall
	ops   []engineOp

	devMu      sync.Mutex
	devNames   []string
	devSpans   []devSpan
	devDropped int64
}

func newRecorder() *recorder { return &recorder{clk: newClock()} }

func (r *recorder) addCall(kind callKind, start, end int64, lbas func(yield func(lba int64)), read bool) {
	r.mu.Lock()
	id := int32(len(r.calls))
	before := len(r.ops)
	if lbas != nil {
		lbas(func(lba int64) { r.ops = append(r.ops, engineOp{lba: lba, call: id, read: read}) })
	}
	r.calls = append(r.calls, engineCall{kind: kind, start: start, end: end, n: int32(len(r.ops) - before)})
	r.mu.Unlock()
}

func (r *recorder) addDev(s devSpan) {
	r.devMu.Lock()
	if len(r.devSpans) < maxDevSpans {
		r.devSpans = append(r.devSpans, s)
	} else {
		r.devDropped++
	}
	r.devMu.Unlock()
}

// engineShim sits between the server and the engine and times every call
// the server makes into the engine's write, read, flush and commit entry
// points.
type engineShim struct {
	server.Engine
	core *core.EPLog
	rec  *recorder
}

func (s *engineShim) WriteBatch(ops []core.BatchOp) {
	if !s.rec.on.Load() {
		s.Engine.WriteBatch(ops)
		return
	}
	t0 := s.rec.clk.now()
	s.Engine.WriteBatch(ops)
	t1 := s.rec.clk.now()
	s.rec.addCall(callWriteBatch, t0, t1, func(yield func(int64)) {
		for i := range ops {
			yield(ops[i].LBA)
		}
	}, false)
}

func (s *engineShim) ReadBatch(ops []core.ReadOp) {
	if !s.rec.on.Load() {
		s.Engine.ReadBatch(ops)
		return
	}
	t0 := s.rec.clk.now()
	s.Engine.ReadBatch(ops)
	t1 := s.rec.clk.now()
	s.rec.addCall(callReadBatch, t0, t1, func(yield func(int64)) {
		for i := range ops {
			yield(ops[i].LBA)
		}
	}, true)
}

func (s *engineShim) Flush() error { return s.timed(callFlush, s.Engine.Flush) }

func (s *engineShim) Commit() error { return s.timed(callCommit, s.Engine.Commit) }

func (s *engineShim) timed(kind callKind, f func() error) error {
	if !s.rec.on.Load() {
		return f()
	}
	t0 := s.rec.clk.now()
	err := f()
	s.rec.addCall(kind, t0, s.rec.clk.now(), nil, false)
	return err
}

// devShim wraps one simulated device, counting and timing its calls while
// the recorder is on. It forwards SetObserver so the simulator still
// reports GC and seek activity into the sink.
type devShim struct {
	device.Dev
	ssd   bool
	index int16
	rec   *recorder

	reads, writes, trims, busyNs atomic.Int64
}

// newDevShim wraps d, registering it with the recorder under name.
func newDevShim(d device.Dev, name string, ssd bool, rec *recorder) *devShim {
	rec.devMu.Lock()
	idx := int16(len(rec.devNames))
	rec.devNames = append(rec.devNames, name)
	rec.devMu.Unlock()
	return &devShim{Dev: d, ssd: ssd, index: idx, rec: rec}
}

// SetObserver forwards to the simulator.
func (d *devShim) SetObserver(sink *obs.Sink, dev int) {
	if o, ok := d.Dev.(interface{ SetObserver(*obs.Sink, int) }); ok {
		o.SetObserver(sink, dev)
	}
}

func (d *devShim) note(op uint8, t0 int64) {
	t1 := d.rec.clk.now()
	d.busyNs.Add(t1 - t0)
	switch op {
	case 'r':
		d.reads.Add(1)
	case 'w':
		d.writes.Add(1)
	default:
		d.trims.Add(1)
	}
	d.rec.addDev(devSpan{dev: d.index, op: op, start: t0, end: t1})
}

func (d *devShim) ReadChunk(idx int64, p []byte) error {
	if !d.rec.on.Load() {
		return d.Dev.ReadChunk(idx, p)
	}
	t0 := d.rec.clk.now()
	err := d.Dev.ReadChunk(idx, p)
	d.note('r', t0)
	return err
}

func (d *devShim) WriteChunk(idx int64, p []byte) error {
	if !d.rec.on.Load() {
		return d.Dev.WriteChunk(idx, p)
	}
	t0 := d.rec.clk.now()
	err := d.Dev.WriteChunk(idx, p)
	d.note('w', t0)
	return err
}

func (d *devShim) ReadChunkAt(start float64, idx int64, p []byte) (float64, error) {
	if !d.rec.on.Load() {
		return d.Dev.ReadChunkAt(start, idx, p)
	}
	t0 := d.rec.clk.now()
	end, err := d.Dev.ReadChunkAt(start, idx, p)
	d.note('r', t0)
	return end, err
}

func (d *devShim) WriteChunkAt(start float64, idx int64, p []byte) (float64, error) {
	if !d.rec.on.Load() {
		return d.Dev.WriteChunkAt(start, idx, p)
	}
	t0 := d.rec.clk.now()
	end, err := d.Dev.WriteChunkAt(start, idx, p)
	d.note('w', t0)
	return end, err
}

func (d *devShim) Trim(idx, n int64) error {
	if !d.rec.on.Load() {
		return d.Dev.Trim(idx, n)
	}
	t0 := d.rec.clk.now()
	err := d.Dev.Trim(idx, n)
	d.note('t', t0)
	return err
}
