package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/erasure"
	"github.com/eplog/eplog/internal/wire"
	"github.com/eplog/eplog/internal/workload"
)

// perLayer runs the workload untraced and then traced, each for half the
// window, checks both, and reports the traced run's per-layer metrics.
// The per-layer table and span file are written under outDir.
func perLayer(name string, seed int64, window time.Duration, outDir string) (*result, error) {
	half := max(window/2, time.Second)
	var lm metricSet
	var correct bool
	var attempted, failed int64
	var tbl *table
	if w, ok := lookupNet(name); ok {
		provenance(name, seed, netSizes(w))
		u, err := runNet(w, seed, half, 1, false)
		if err != nil {
			return nil, err
		}
		ur, err := netResult(u)
		if err != nil {
			return nil, err
		}
		t, err := runNet(w, seed, half, 1, true)
		if err != nil {
			return nil, err
		}
		tr, err := netResult(t)
		if err != nil {
			return nil, err
		}
		lm, tbl = netLayers(t, u)
		lm.add("harness.trace_overhead", tr.Metrics["ops_per_s"].Value/ur.Metrics["ops_per_s"].Value, "ratio")
		correct = ur.Correct && tr.Correct
		attempted, failed = ur.Attempted+tr.Attempted, ur.Failed+tr.Failed
	} else if name == "trace-replay" {
		u, rt, err := runReplay(seed, replaysFor(half), nil)
		if err != nil {
			return nil, err
		}
		provenance(name, seed, replaySizes(rt))
		ur := replayResult(u)
		rec := newRecorder()
		t, _, err := runReplay(seed, 1, rec)
		if err != nil {
			return nil, err
		}
		tr := replayResult(t)
		lm, tbl = replayLayers(t, u, rt, rec)
		lm.add("harness.trace_overhead", tr.Metrics["ops_per_s"].Value/ur.Metrics["ops_per_s"].Value, "ratio")
		correct = ur.Correct && tr.Correct
		attempted, failed = ur.Attempted+tr.Attempted, ur.Failed+tr.Failed
	} else {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
	}
	if err := writeOutputs(outDir, name, lm, tbl); err != nil {
		return nil, err
	}
	return &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: lm}, nil
}

// table holds the traced run's spans and self-time breakdown for output.
type table struct {
	rec   *recorder
	reqs  []joined
	notes []string
}

// joined is one client request joined to the engine call that carried it.
type joined struct {
	conn int
	req  reqSpan
	call int32 // index into recorder.calls, -1 when unjoined
}

// join matches each timed read and write request to its engine op: the
// op on the same LBA whose call started after the request was sent and
// ended before it was received. Connections own disjoint ranges and never
// have two overlapping ops in flight, so at most one op matches.
func join(rec *recorder, conns []*connResult) []joined {
	type opTime struct {
		start, end int64
		call       int32
	}
	idx := [2]map[int64][]opTime{{}, {}}
	for _, op := range rec.ops {
		c := rec.calls[op.call]
		k := 0
		if op.read {
			k = 1
		}
		idx[k][op.lba] = append(idx[k][op.lba], opTime{c.start, c.end, op.call})
	}
	for k := range idx {
		for _, l := range idx[k] {
			slices.SortFunc(l, func(a, b opTime) int { return int(a.start - b.start) })
		}
	}
	var out []joined
	for ci, c := range conns {
		for _, r := range c.reqs {
			j := joined{conn: ci, req: r, call: -1}
			if r.kind != kindFlush {
				k := 0
				if r.kind == kindRead {
					k = 1
				}
				l := idx[k][r.lba]
				i := sort.Search(len(l), func(i int) bool { return l[i].start >= r.send })
				if i < len(l) && l[i].end <= r.recv {
					j.call = l[i].call
				}
			}
			out = append(out, j)
		}
	}
	return out
}

// engineTimes summarizes the recorder's engine calls.
type engineTimes struct {
	batch    [numCallKinds]sample
	ops      [numCallKinds]int64
	busy     int64
	commitCs int64
}

func summarizeCalls(rec *recorder) engineTimes {
	var e engineTimes
	for _, c := range rec.calls {
		d := c.end - c.start
		e.batch[c.kind] = append(e.batch[c.kind], d)
		e.ops[c.kind] += int64(c.n)
		e.busy += d
	}
	e.commitCs = int64(len(e.batch[callCommit]))
	return e
}

// devTotals sums the device shims' counts by kind.
type devTotals struct {
	reads, writes, trims, busyNs int64
}

func sumDevs(devs []*devShim, ssd bool) devTotals {
	var t devTotals
	for _, d := range devs {
		if d.ssd != ssd {
			continue
		}
		t.reads += d.reads.Load()
		t.writes += d.writes.Load()
		t.trims += d.trims.Load()
		t.busyNs += d.busyNs.Load()
	}
	return t
}

// netLayers computes the per-layer metrics of a traced net run t; u is the
// untraced run of the same workload, which supplies the runtime and
// generator figures that tracing itself would distort.
func netLayers(t, u *netRun) (metricSet, *table) {
	tt, ut := t.totals(), u.totals()
	ops, userBytes, write, read := tt.ops, tt.userBytes, tt.write.all(), tt.read.all()
	m := metricSet{}
	fops := float64(ops)
	rec := t.rec
	tbl := &table{rec: rec, reqs: join(rec, t.conns)}

	// wire: the workload's own frames through the codec.
	enc, dec := codecBench(netFrames(t.conns, t.w.flushEvery))
	m.add("wire.encode_ns_per_frame", enc, "ns")
	m.add("wire.decode_ns_per_frame", dec, "ns")
	cnt := func(name string) float64 { return float64(t.m1.Counters[name] - t.m0.Counters[name]) }
	m.add("wire.bytes_per_op", ratio(cnt("net.bytes_in")+cnt("net.bytes_out"), fops), "B")

	// server: queue and respond times from the join, batching and gate
	// counters from the sink.
	var queue, respond sample
	for _, j := range tbl.reqs {
		if j.call < 0 {
			continue
		}
		c := rec.calls[j.call]
		queue = append(queue, c.start-j.req.send)
		respond = append(respond, j.req.recv-c.end)
	}
	m.add("server.queue_us_p50", queue.quantile(0.5), "us")
	m.add("server.queue_us_p99", queue.quantile(0.99), "us")
	m.add("server.respond_us_p50", respond.quantile(0.5), "us")
	m.add("server.respond_us_p99", respond.quantile(0.99), "us")
	et := summarizeCalls(rec)
	m.add("server.write_batch_ops", ratio(float64(et.ops[callWriteBatch]), float64(len(et.batch[callWriteBatch]))), "ops")
	m.add("server.read_batch_ops", ratio(float64(et.ops[callReadBatch]), float64(len(et.batch[callReadBatch]))), "ops")
	m.add("server.writev_per_response", ratio(cnt("net.writev_calls"), cnt("net.frames_out")), "ratio")
	m.add("server.gate_waits_per_kop", ratio(1000*cnt("net.gate_waits"), fops), "1/kop")
	m.add("server.forced_folds_per_kop", ratio(1000*cnt("net.forced_folds"), fops), "1/kop")

	addCoreLayers(m, et, t.stats, t.locks, t.rdLocks, len(write), len(read), ops, userBytes, float64(t.windowEnd-t.window0))
	addDeviceLayers(m, t.devs, t.dev, ops, userBytes)
	addRuntimeLayers(m, u.rt, ut.ops)
	m.add("harness.gen_lag_p99_us", ut.lag.quantile(0.99), "us")

	tbl.notes = append(tbl.notes,
		breakdown("write", tbl, kindWrite),
		breakdown("read", tbl, kindRead),
		fmt.Sprintf("joined %d of %d read/write requests to engine calls; %d device spans kept, %d dropped",
			len(queue), len(write)+len(read), len(rec.devSpans), rec.devDropped))
	return m, tbl
}

// replayLayers computes the per-layer metrics of a traced trace-replay run
// t. The replay has no network: wire frames are the trace's requests put
// through the codec, and the server metrics are zero.
func replayLayers(t, u *replayRun, rt *replayTrace, rec *recorder) (metricSet, *table) {
	m := metricSet{}
	write, read, flush := t.write.all(), t.read.all(), t.flush.all()
	ops := t.requests + t.readCalls + t.flushOps
	enc, dec := codecBench(replayFrames(rt))
	m.add("wire.encode_ns_per_frame", enc, "ns")
	m.add("wire.decode_ns_per_frame", dec, "ns")
	m.add("wire.bytes_per_op", 0, "B")
	for _, name := range []string{"server.queue_us_p50", "server.queue_us_p99", "server.respond_us_p50", "server.respond_us_p99"} {
		m.add(name, 0, "us")
	}
	m.add("server.write_batch_ops", 0, "ops")
	m.add("server.read_batch_ops", 0, "ops")
	m.add("server.writev_per_response", 0, "ratio")
	m.add("server.gate_waits_per_kop", 0, "1/kop")
	m.add("server.forced_folds_per_kop", 0, "1/kop")

	// Each synchronous WriteAt of the trace is a one-op engine call; the
	// read-back reads and the flush rounds' Flush+Commit are the read and
	// flush calls.
	var et engineTimes
	et.batch[callWriteBatch], et.ops[callWriteBatch] = write, int64(len(write))
	et.batch[callReadBatch], et.ops[callReadBatch] = read, int64(len(read))
	et.batch[callFlush] = flush
	et.busy = write.sum() + read.sum() + flush.sum()
	et.commitCs = int64(len(flush))
	addCoreLayers(m, et, t.stats, t.locks, t.rdLocks, len(write), len(read), ops, t.userBytes, float64(t.window-t.window0))
	addDeviceLayers(m, t.devs, t.dev, ops, t.userBytes)
	addRuntimeLayers(m, u.rt, u.requests)
	m.add("harness.gen_lag_p99_us", 0, "us")
	tbl := &table{rec: rec, notes: []string{fmt.Sprintf(
		"trace-replay: WriteAt mean %.2fus of which device calls %.2fus; %d device spans kept, %d dropped",
		float64(write.sum())/float64(max(len(write), 1))/1e3,
		float64(sumDevs(t.devs, true).busyNs+sumDevs(t.devs, false).busyNs)/float64(max(ops, 1))/1e3,
		len(rec.devSpans), rec.devDropped)}}
	return m, tbl
}

// addCoreLayers adds the core write, read and commit metrics and the
// erasure metrics.
func addCoreLayers(m metricSet, et engineTimes, st core.Stats, locks, rdLocks int64, writes, reads int, ops, userBytes int64, windowNs float64) {
	wb := et.batch[callWriteBatch]
	m.add("core.write_batch_us_p50", wb.quantile(0.5), "us")
	m.add("core.write_batch_us_p99", wb.quantile(0.99), "us")
	m.add("core.write_ns_per_op", ratio(float64(wb.sum()), float64(et.ops[callWriteBatch])), "ns")
	m.add("core.shard_locks_per_write", ratio(float64(locks), float64(writes)), "count")
	m.add("core.busy_share", ratio(float64(et.busy), windowNs), "ratio")

	rb := et.batch[callReadBatch]
	m.add("core.read_batch_us_p50", rb.quantile(0.5), "us")
	m.add("core.read_batch_us_p99", rb.quantile(0.99), "us")
	m.add("core.read_ns_per_op", ratio(float64(rb.sum()), float64(et.ops[callReadBatch])), "ns")
	m.add("core.read_locks_per_read", ratio(float64(rdLocks), float64(reads)), "count")

	fl := et.batch[callFlush]
	m.add("core.flush_us_p50", fl.quantile(0.5), "us")
	m.add("core.flush_us_p99", fl.quantile(0.99), "us")
	m.add("core.commit_calls_per_kop", ratio(1000*float64(et.commitCs), float64(ops)), "1/kop")
	m.add("core.commits_per_kwrite", ratio(1000*float64(st.Commits), float64(writes)), "1/kop")
	userChunks := float64(userBytes) / chunkSize
	m.add("core.commit_chunks_per_user_chunk", ratio(float64(st.CommitReadChunks+st.CommitWriteChunks), userChunks), "ratio")
	m.add("core.log_stripe_width", ratio(float64(st.LogStripeMembers), float64(st.LogStripes)), "chunks")

	m.add("erasure.encode_ns_per_stripe", encodeBench(), "ns")
	m.add("erasure.parity_chunks_per_user_chunk", ratio(float64(st.ParityWriteChunks), userChunks), "ratio")
}

// addDeviceLayers adds the SSD and HDD metrics from the device shims and
// the simulators' own counters.
func addDeviceLayers(m metricSet, devs []*devShim, dc devCounters, ops, userBytes int64) {
	fops := float64(ops)
	s, h := sumDevs(devs, true), sumDevs(devs, false)
	m.add("ssd.write_calls_per_op", ratio(float64(s.writes), fops), "count")
	m.add("ssd.read_calls_per_op", ratio(float64(s.reads), fops), "count")
	m.add("ssd.busy_ns_per_op", ratio(float64(s.busyNs), fops), "ns")
	m.add("ssd.trims_per_kop", ratio(1000*float64(s.trims), fops), "1/kop")
	m.add("ssd.gc_ops_per_user_mib", ratio(float64(dc.ssdGCOps), float64(userBytes)/mib), "1/MiB")
	m.add("ssd.write_amp", ratio(float64(dc.ssdHostWrites+dc.ssdPagesMoved), float64(dc.ssdHostWrites)), "ratio")
	m.add("hdd.write_calls_per_op", ratio(float64(h.writes), fops), "count")
	m.add("hdd.read_calls_per_op", ratio(float64(h.reads), fops), "count")
	m.add("hdd.busy_ns_per_op", ratio(float64(h.busyNs), fops), "ns")
	m.add("hdd.streamed_share", ratio(float64(dc.hddStreamed), float64(dc.hddStreamed+dc.hddPositioned)), "ratio")
}

// addRuntimeLayers adds the Go runtime's work per op over an untraced
// window.
func addRuntimeLayers(m metricSet, rt runtimeDelta, ops int64) {
	fops := float64(ops)
	m.add("runtime.allocs_per_op", ratio(rt.allocs, fops), "count")
	m.add("runtime.alloc_bytes_per_op", ratio(rt.bytes, fops), "B")
	m.add("runtime.gc_cycles_per_kop", ratio(1000*rt.cycles, fops), "1/kop")
	m.add("runtime.gc_pause_p99_us", rt.pauseP99us, "us")
}

// breakdown splits the mean client latency of one request kind into the
// server's queue time, the engine call and the server's respond time,
// which add back to it; the medians do not add exactly, so their residual
// is shown.
func breakdown(name string, tbl *table, kind opKind) string {
	var total, queue, core, respond sample
	for _, j := range tbl.reqs {
		if j.req.kind != kind || j.call < 0 {
			continue
		}
		c := tbl.rec.calls[j.call]
		total = append(total, j.req.recv-j.req.send)
		queue = append(queue, c.start-j.req.send)
		core = append(core, c.end-c.start)
		respond = append(respond, j.req.recv-c.end)
	}
	n := float64(max(len(total), 1))
	mean := func(s sample) float64 { return float64(s.sum()) / n / 1e3 }
	p50 := total.quantile(0.5)
	parts := queue.quantile(0.5) + core.quantile(0.5) + respond.quantile(0.5)
	return fmt.Sprintf("%s (n=%d): client mean %.1fus = server.queue %.1fus + core %.1fus + server.respond %.1fus, residual %.1fus; "+
		"client p50 %.1fus vs sum of part p50s %.1fus, residual %.1fus",
		name, len(total), mean(total), mean(queue), mean(core), mean(respond),
		mean(total)-mean(queue)-mean(core)-mean(respond), p50, parts, p50-parts)
}

// maxCodecOps bounds the ops whose frames the codec benchmark replays.
const maxCodecOps = 4096

// netFrames returns the request and response frames of the traced
// window's first ops, in log order.
func netFrames(conns []*connResult, flushEvery int) []wire.Frame {
	var frames []wire.Frame
	payload := make([]byte, serveK*chunkSize)
	workload.Fill(payload, 1)
	id := uint64(0)
	for _, c := range conns {
		for i, op := range c.log.Ops[c.pre:] {
			if i >= maxCodecOps/len(conns) {
				break
			}
			id++
			n := op.Chunks * chunkSize
			if op.Kind == workload.Read {
				frames = append(frames,
					wire.Frame{Type: wire.TRead, ReqID: id, Arg: op.LBA, Count: uint32(op.Chunks)},
					wire.Frame{Type: wire.TRead | wire.RespFlag, ReqID: id, Arg: op.LBA, Count: uint32(n), Payload: payload[:n]})
			} else {
				frames = append(frames,
					wire.Frame{Type: wire.TWrite, ReqID: id, Arg: op.LBA, Count: uint32(n), Payload: payload[:n]},
					wire.Frame{Type: wire.TWrite | wire.RespFlag, ReqID: id, Arg: op.LBA, Count: uint32(n)})
			}
			if (i+1)%flushEvery == 0 {
				id++
				frames = append(frames, wire.Frame{Type: wire.TFlush, ReqID: id}, wire.Frame{Type: wire.TFlush | wire.RespFlag, ReqID: id})
			}
		}
	}
	return frames
}

// replayFrames returns the WRITE request and response frames the trace's
// first requests would take over the wire.
func replayFrames(rt *replayTrace) []wire.Frame {
	payload := make([]byte, max(rt.maxChunks, serveK)*chunkSize)
	workload.Fill(payload, 1)
	var frames []wire.Frame
	for i := 0; i < len(rt.lbas) && i < maxCodecOps; i++ {
		n := int(rt.chunks[i]) * chunkSize
		id := uint64(i + 1)
		frames = append(frames,
			wire.Frame{Type: wire.TWrite, ReqID: id, Arg: rt.lbas[i], Count: uint32(n), Payload: payload[:n]},
			wire.Frame{Type: wire.TWrite | wire.RespFlag, ReqID: id, Arg: rt.lbas[i], Count: uint32(n)})
	}
	return frames
}

// codecRounds is how many times the codec benchmark encodes and decodes
// the frame set; the median round is reported.
const codecRounds = 15

// codecBench times wire.Encoder.WriteFrame and wire.Decoder.ReadFrame over
// frames and returns the median nanoseconds per frame of each.
func codecBench(frames []wire.Frame) (encNs, decNs float64) {
	if len(frames) == 0 {
		return 0, 0
	}
	var stream bytes.Buffer
	sw := bufio.NewWriterSize(&stream, 64<<10)
	enc := wire.NewEncoder(sw)
	for i := range frames {
		enc.WriteFrame(&frames[i]) // writes to memory cannot fail
	}
	enc.Flush()
	dw := bufio.NewWriterSize(io.Discard, 64<<10)
	denc := wire.NewEncoder(dw)
	var encs, decs []float64
	for r := 0; r < codecRounds; r++ {
		t0 := time.Now()
		for i := range frames {
			denc.WriteFrame(&frames[i]) // io.Discard cannot fail
		}
		denc.Flush()
		encs = append(encs, float64(time.Since(t0).Nanoseconds())/float64(len(frames)))

		dec := wire.NewDecoder(bufio.NewReaderSize(bytes.NewReader(stream.Bytes()), 64<<10), 0)
		var f wire.Frame
		t0 = time.Now()
		for range frames {
			if err := dec.ReadFrame(&f); err != nil {
				panic(fmt.Sprintf("decoding frames this process encoded: %v", err))
			}
			wire.PutPayload(&f)
		}
		decs = append(decs, float64(time.Since(t0).Nanoseconds())/float64(len(frames)))
	}
	return median(encs), median(decs)
}

// encodeBench times (6+2) Cauchy Reed-Solomon encodes of 4 KiB shards, the
// engine's code, and returns the median nanoseconds per stripe.
func encodeBench() float64 {
	code, err := erasure.New(serveK, serveM, erasure.Cauchy)
	if err != nil {
		panic(fmt.Sprintf("the (6+2) code is valid: %v", err))
	}
	shards := make([][]byte, serveK+serveM)
	rng := rand.New(rand.NewSource(1))
	for i := range shards {
		shards[i] = make([]byte, chunkSize)
		rng.Read(shards[i])
	}
	const rounds, perRound = 15, 500
	var ns []float64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < perRound; i++ {
			if err := code.Encode(shards); err != nil {
				panic(fmt.Sprintf("encoding well-formed shards: %v", err))
			}
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/perRound)
	}
	return median(ns)
}

// writeOutputs writes the per-layer table (metric, value, unit, workload)
// and the span file, and prints the table to standard error.
func writeOutputs(dir, name string, m metricSet, tbl *table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("metric\tvalue\tunit\tworkload\n")
	for _, k := range names {
		fmt.Fprintf(&b, "%s\t%.6g\t%s\t%s\n", k, m[k].Value, m[k].Unit, name)
	}
	for _, n := range tbl.notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	tablePath := filepath.Join(dir, name+"-layers.tsv")
	if err := os.WriteFile(tablePath, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, b.String())
	spanPath := filepath.Join(dir, name+"-spans.jsonl")
	if err := writeSpans(spanPath, tbl); err != nil {
		return err
	}
	fmt.Printf("per-layer table %s, spans %s\n", tablePath, spanPath)
	return nil
}

// maxFileRequests bounds the client requests written to the span file; the
// metrics use every request.
const maxFileRequests = 50000

// writeSpans writes the spans as JSON lines: the engine calls, the kept
// device calls, and the first maxFileRequests client requests with their
// queue/core/respond children. Times are nanoseconds since the run's clock
// base.
func writeSpans(path string, tbl *table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	rec := tbl.rec
	// Span IDs: engine calls first, then devices, then requests and their
	// phases, so every parent ID is known before its children.
	callID := func(i int32) int64 { return int64(i) + 1 }
	for i, c := range rec.calls {
		fmt.Fprintf(w, `{"id":%d,"parent":0,"name":"core.%s","start":%d,"end":%d,"ops":%d}`+"\n",
			callID(int32(i)), callNames[c.kind], c.start, c.end, c.n)
	}
	next := int64(len(rec.calls)) + 1
	for _, d := range rec.devSpans {
		fmt.Fprintf(w, `{"id":%d,"parent":0,"name":"dev.%s.%c","start":%d,"end":%d}`+"\n",
			next, rec.devNames[d.dev], d.op, d.start, d.end)
		next++
	}
	kinds := [...]string{"write", "read", "flush"}
	for _, j := range tbl.reqs[:min(len(tbl.reqs), maxFileRequests)] {
		id := next
		next++
		r := j.req
		fmt.Fprintf(w, `{"id":%d,"parent":0,"name":"request.%s","conn":%d,"lba":%d,"start":%d,"end":%d}`+"\n",
			id, kinds[r.kind], j.conn, r.lba, r.send, r.recv)
		if j.call < 0 {
			continue
		}
		c := rec.calls[j.call]
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":"server.queue","start":%d,"end":%d}`+"\n", next, id, r.send, c.start)
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":"core","call":%d,"start":%d,"end":%d}`+"\n", next+1, id, callID(j.call), c.start, c.end)
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":"server.respond","start":%d,"end":%d}`+"\n", next+2, id, c.end, r.recv)
		next += 3
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
