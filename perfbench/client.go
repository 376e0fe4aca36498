package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/eplog/eplog/internal/server"
	"github.com/eplog/eplog/internal/wire"
	"github.com/eplog/eplog/internal/workload"
)

// opKind classifies a request for latency accounting.
type opKind uint8

const (
	kindWrite opKind = iota
	kindRead
	kindFlush
)

// reqSpan is one client request of the traced window: send and receipt
// times on the recorder's clock. Connections own disjoint LBA ranges and
// never have two overlapping ops in flight, so (kind, LBA, send time)
// joins it to the engine op that carried it.
type reqSpan struct {
	kind       opKind
	lba        int64
	send, recv int64
}

// connResult is one connection's outcome: its op log (precondition first)
// and the timed window's latencies.
type connResult struct {
	log       server.ConnLog
	pre       int // the first pre ops of log.Ops are the precondition
	write     windowed
	read      windowed
	flush     windowed
	lag       sample
	done      [subWindows]int64 // data ops completed per sub-window, before the deadline
	reqs      []reqSpan
	ops       int64 // data ops completed in the timed window
	attempted int64 // requests issued in the timed window, flushes included
	failed    int64
	userBytes int64 // acknowledged write payload in the timed window
	end       int64 // clock time the last timed op completed
	setupErr  error // first failed precondition op
}

// flight is one in-flight request.
type flight struct {
	kind   opKind
	lba    int64
	chunks int
	op     int   // index into log.Ops, -1 for a flush
	t0     int64 // latency origin: send time, or due time in an open loop
	send   int64
	timed  bool
}

// connDriver issues one connection's requests with pipeline-depth and
// same-LBA conflict control, as server.RunSoak does: an op overlapping an
// in-flight op waits for the earlier completion first, so within a
// connection overlapping ops apply in issue order and the serial replay is
// exact.
type connDriver struct {
	c        *server.Client
	clk      clock
	res      *connResult
	depth    int
	traced   bool
	inflight map[*server.Call]flight
	done     chan *server.Call
	free     [][]byte
	buf      []byte
	timer    *time.Timer
	// start and deadline bound the timed window on clk.
	start, deadline int64
}

func newConnDriver(c *server.Client, clk clock, res *connResult, depth int, traced bool) *connDriver {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &connDriver{
		c:        c,
		deadline: -1,
		clk:      clk,
		res:      res,
		depth:    depth,
		traced:   traced,
		inflight: make(map[*server.Call]flight, depth),
		done:     make(chan *server.Call, depth+1), // every in-flight call plus a flush
		buf:      make([]byte, serveK*chunkSize),
		timer:    t,
	}
}

func (d *connDriver) getDst() []byte {
	if n := len(d.free); n > 0 {
		b := d.free[n-1]
		d.free = d.free[:n-1]
		return b
	}
	return make([]byte, chunkSize)
}

// complete accounts one finished call.
func (d *connDriver) complete(call *server.Call) {
	now := d.clk.now()
	fr := d.inflight[call]
	delete(d.inflight, call)
	if call.Dst != nil {
		d.free = append(d.free, call.Dst[:cap(call.Dst)])
	}
	res := d.res
	if call.Err != nil {
		if fr.timed {
			res.failed++
		} else if res.setupErr == nil {
			res.setupErr = fmt.Errorf("precondition write at %d: %w", fr.lba, call.Err)
		}
		return
	}
	switch fr.kind {
	case kindWrite:
		res.log.BytesWritten += int64(call.Resp.Count)
	case kindRead:
		h := fnv.New64a()
		h.Write(call.Resp.Payload)
		res.log.Ops[fr.op].Sum = h.Sum64()
		res.log.BytesRead += int64(len(call.Resp.Payload))
	}
	if !fr.timed {
		return
	}
	lat := now - fr.t0
	k := min(int((now-d.start)*subWindows/(d.deadline-d.start)), subWindows-1)
	if fr.kind != kindFlush && now < d.deadline {
		res.done[k]++
	}
	switch fr.kind {
	case kindWrite:
		res.write[k] = append(res.write[k], lat)
		res.userBytes += int64(call.Resp.Count)
		res.ops++
	case kindRead:
		res.read[k] = append(res.read[k], lat)
		res.ops++
	case kindFlush:
		res.flush[k] = append(res.flush[k], lat)
	}
	res.end = now
	if d.traced {
		res.reqs = append(res.reqs, reqSpan{kind: fr.kind, lba: fr.lba, send: fr.send, recv: now})
	}
}

func (d *connDriver) overlaps(lba int64, n int) bool {
	for _, fr := range d.inflight {
		if fr.chunks > 0 && lba < fr.lba+int64(fr.chunks) && fr.lba < lba+int64(n) {
			return true
		}
	}
	return false
}

// waitUntil processes completions until the clock reaches t.
func (d *connDriver) waitUntil(t int64) {
	for {
		wait := t - d.clk.now()
		if wait <= 0 {
			return
		}
		d.timer.Reset(time.Duration(wait))
		select {
		case call := <-d.done:
			if !d.timer.Stop() {
				select {
				case <-d.timer.C:
				default:
				}
			}
			d.complete(call)
		case <-d.timer.C:
		}
	}
}

// issue logs op and sends it once the pipeline has room and no in-flight
// op overlaps it. due is the open-loop schedule time, or -1 in a closed
// loop.
func (d *connDriver) issue(op workload.Op, due int64, timed bool) {
	res := d.res
	res.log.Ops = append(res.log.Ops, server.SoakOp{Kind: op.Kind, LBA: op.LBA, Chunks: op.Chunks, Seed: op.Seed})
	for len(d.inflight) >= d.depth || d.overlaps(op.LBA, op.Chunks) {
		d.complete(<-d.done)
	}
	send := d.clk.now()
	fr := flight{lba: op.LBA, chunks: op.Chunks, op: len(res.log.Ops) - 1, t0: send, send: send, timed: timed}
	if due >= 0 {
		fr.t0 = due
		if timed {
			res.lag = append(res.lag, send-due)
		}
	}
	var call *server.Call
	if op.Kind == workload.Read {
		fr.kind = kindRead
		call = d.c.GoRead(op.LBA, uint32(op.Chunks), d.getDst(), d.done)
	} else {
		fr.kind = kindWrite
		p := d.buf[:op.Chunks*chunkSize]
		workload.Fill(p, op.Seed)
		call = d.c.Go(wire.Frame{Type: wire.TWrite, Arg: op.LBA, Count: uint32(len(p)), Payload: p}, d.done)
	}
	if timed {
		res.attempted++
	}
	d.inflight[call] = fr
}

// issueFlush sends a FLUSH barrier once the pipeline has room.
func (d *connDriver) issueFlush(due int64) {
	for len(d.inflight) >= d.depth {
		d.complete(<-d.done)
	}
	send := d.clk.now()
	fr := flight{kind: kindFlush, op: -1, t0: send, send: send, timed: true}
	if due >= 0 {
		fr.t0 = due
	}
	d.res.attempted++
	d.inflight[d.c.Go(wire.Frame{Type: wire.TFlush}, d.done)] = fr
}

// drain waits for every in-flight call.
func (d *connDriver) drain() {
	for len(d.inflight) > 0 {
		d.complete(<-d.done)
	}
}

// precondition overwrites the connection's range with logged full-stripe
// writes, as server.RunSoak does, so every later read observes only this
// run's data and updates take the logging path; a FLUSH barrier closes it.
func (d *connDriver) precondition() error {
	cl := &d.res.log
	for s := int64(0); s < cl.Chunks/serveK; s++ {
		d.issue(workload.Op{
			Kind:   workload.FullStripe,
			LBA:    cl.Lo + s*serveK,
			Chunks: serveK,
			Seed:   uint64(cl.Seed+1)<<20 + uint64(s),
		}, -1, false)
	}
	d.drain()
	d.res.pre = len(cl.Ops)
	if d.res.setupErr != nil {
		return d.res.setupErr
	}
	if err := d.c.Flush(); err != nil {
		return fmt.Errorf("precondition flush: %w", err)
	}
	return nil
}

// age runs n ops of the update mix, logged but untimed, so the simulated
// SSDs reach garbage-collection steady state before the timed window; a
// FLUSH barrier closes it. The ops extend the precondition in the log.
func (d *connDriver) age(n int) error {
	cl := &d.res.log
	src, err := newOpSource(&server.ConnLog{Lo: cl.Lo, Chunks: cl.Chunks, Seed: cl.Seed + ageSeedOffset}, false)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		d.issue(src.next(), -1, false)
	}
	d.drain()
	d.res.pre = len(cl.Ops)
	if d.res.setupErr != nil {
		return d.res.setupErr
	}
	if err := d.c.Flush(); err != nil {
		return fmt.Errorf("ageing flush: %w", err)
	}
	return nil
}

// ageSeedOffset separates the ageing stream from the timed one.
const ageSeedOffset = 1 << 32

// opSource yields a workload's op stream for one connection.
type opSource struct {
	gen       *workload.Gen
	readShare bool // net-read: seven in eight ops become reads
	n         int
}

func newOpSource(cl *server.ConnLog, readShare bool) (*opSource, error) {
	cfg := workload.Config{Lo: cl.Lo, Chunks: cl.Chunks, K: serveK, Seed: cl.Seed}
	if readShare {
		cfg.StripeEvery, cfg.ReadEvery = -1, -1
	}
	gen, err := workload.New(cfg.DefaultMix())
	if err != nil {
		return nil, err
	}
	return &opSource{gen: gen, readShare: readShare}, nil
}

func (s *opSource) next() workload.Op {
	op := s.gen.Next()
	if s.readShare && s.n%8 != 7 {
		op = workload.Op{Kind: workload.Read, LBA: op.LBA, Chunks: 1}
	}
	s.n++
	return op
}

// run drives the timed window until the deadline (clock time), with a
// FLUSH barrier after every flushEvery ops. interval is the open-loop
// spacing between ops in nanoseconds; 0 runs a closed loop.
func (d *connDriver) run(src *opSource, start, deadline, interval int64, flushEvery int) error {
	d.start, d.deadline = start, deadline
	d.res.write, d.res.read, d.res.flush = make(windowed, subWindows), make(windowed, subWindows), make(windowed, subWindows)
	for i := 0; ; i++ {
		due := int64(-1)
		if interval > 0 {
			due = start + int64(i)*interval
			if due >= deadline {
				break
			}
			d.waitUntil(due)
		} else if d.clk.now() >= deadline {
			break
		}
		d.issue(src.next(), due, true)
		if (i+1)%flushEvery == 0 {
			d.issueFlush(due)
		}
	}
	d.drain()
	if err := d.c.Flush(); err != nil {
		return fmt.Errorf("final flush: %w", err)
	}
	return nil
}
