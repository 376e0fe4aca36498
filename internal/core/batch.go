package core

import (
	"fmt"
	"sync"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/store"
)

// Batched execution
// -----------------
//
// Every write and every read runs through one executor. WriteBatch and
// ReadBatch validate each op and classify it: an op whose stripes all
// belong to one shard (every op of a one-shard engine, and every
// single-stripe op) joins that shard's group; an op spanning stripes of a
// multi-shard engine runs on its own afterwards. Each group runs under a
// single lock hold (writes) or a single epoch-validated pass (reads), so
// unrelated requests the network server coalesces share one shard-lock
// acquisition. WriteChunks and ReadChunks are one-op batches.
//
// Ordering: ops within a batch land on each shard in batch order, but
// there is no cross-op ordering guarantee between shards (shard groups run
// in parallel), and two ops in one batch touching the same LBA have
// unspecified relative order — the same contract the wire protocol gives
// pipelined requests. Callers needing order must await completion before
// issuing a dependent op.

// BatchOp is one write in a batch. Start is the op's virtual start time;
// End and Err carry the per-op result back (End is the virtual completion
// time on success and the span's progress on partial failure, matching
// WriteChunks).
type BatchOp struct {
	LBA   int64
	Data  []byte
	Start float64

	End float64
	Err error
}

// batchScratch holds one batch's grouping tables, its read spans and
// seqlock samples, and the one-op batches of WriteChunks and ReadChunks.
// Pooled so single-op and single-group calls allocate nothing; batches run
// concurrently (the server's read executors), so the pool — not an engine
// field — owns the frames.
type batchScratch struct {
	groups   [][]int       // op indices per owning shard
	spanning []int         // ops spanning several shards
	touched  []*shard      // a spanning op's shards, ascending
	epochs   []uint64      // seqlock samples, one slot per shard
	spans    []device.Span // per-op read spans
	wg       sync.WaitGroup
	wop      [1]BatchOp
	rop      [1]ReadOp
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// getBatch returns a scratch frame with empty groups for e's shards.
func (e *EPLog) getBatch() *batchScratch {
	sc := batchPool.Get().(*batchScratch)
	if cap(sc.groups) < e.nShards {
		sc.groups = make([][]int, e.nShards)
	}
	sc.groups = sc.groups[:e.nShards]
	for i := range sc.groups {
		sc.groups[i] = sc.groups[i][:0]
	}
	sc.spanning = sc.spanning[:0]
	return sc
}

// checkOp validates an op's range, returning its chunk count. what names
// the payload in the error ("data" for writes, "buffer" for reads).
func (e *EPLog) checkOp(lba int64, length int, what string) (int64, error) {
	n := int64(length / e.csize)
	if int(n)*e.csize != length || n == 0 {
		return 0, fmt.Errorf("core: %s length %d not a positive chunk multiple", what, length)
	}
	if lba < 0 || lba+n > e.geo.Chunks() {
		return 0, fmt.Errorf("%w: [%d,%d) of %d", store.ErrWriteTooLarge, lba, lba+n, e.geo.Chunks())
	}
	return n, nil
}

// classify files valid op i, covering [lba, lba+n), under its owning
// shard's group, or as spanning when its stripes belong to several shards.
// Consecutive stripes always land on different shards, so on a
// multi-shard engine only single-stripe ops are shard-local.
//
//eplog:hotpath
func (sc *batchScratch) classify(e *EPLog, i int, lba, n int64) {
	first, _ := e.geo.Stripe(lba)
	last, _ := e.geo.Stripe(lba + n - 1)
	if e.nShards > 1 && first != last {
		sc.spanning = append(sc.spanning, i)
		return
	}
	si := first % int64(e.nShards)
	sc.groups[si] = append(sc.groups[si], i)
}

// WriteChunks implements store.Store as a one-op WriteBatch. New writes
// that span a full stripe are written directly with their parity (saving
// the later commit); all other writes take the elastic-logging path: data
// chunks go out-of-place to their SSDs while log chunks — computed from
// the new data only — stream to the log devices in the same phase. There
// is no pre-read anywhere on the write path.
func (e *EPLog) WriteChunks(start float64, lba int64, data []byte) (float64, error) {
	sc := e.getBatch()
	op := &sc.wop[0]
	*op = BatchOp{LBA: lba, Data: data, Start: start}
	e.writeBatch(sc, sc.wop[:])
	end, err := op.End, op.Err
	*op = BatchOp{} // do not pin the caller's payload
	batchPool.Put(sc)
	return end, err
}

// WriteBatch applies every op, filling each op's End and Err in place.
// Each shard's group runs under one exclusive lock hold, on the caller's
// goroutine for the first group and on one goroutine per further group.
// Spanning ops then run one at a time, each shard's part under that
// shard's lock. Per-op device work, spans, stats and commit triggers are
// those of a request issued alone, so a batch on a one-shard engine is
// bit-identical to issuing its ops sequentially. Failures are per-op: a
// bad or failed op never prevents the rest of the batch from running.
func (e *EPLog) WriteBatch(ops []BatchOp) {
	if len(ops) == 0 {
		return
	}
	sc := e.getBatch()
	e.writeBatch(sc, ops)
	batchPool.Put(sc)
}

//eplog:hotpath
func (e *EPLog) writeBatch(sc *batchScratch, ops []BatchOp) {
	for i := range ops {
		op := &ops[i]
		n, err := e.checkOp(op.LBA, len(op.Data), "data")
		op.End, op.Err = op.Start, err
		if err == nil {
			sc.classify(e, i, op.LBA, n)
		}
	}
	first := -1
	for si, g := range sc.groups {
		if len(g) == 0 {
			continue
		}
		if first < 0 {
			first = si
			continue
		}
		sc.wg.Add(1)
		go func() { //eplog:alloc-ok one closure per extra shard group; single-group batches run inline
			e.writeGroup(e.shards[si], ops, g)
			sc.wg.Done()
		}()
	}
	if first >= 0 {
		e.writeGroup(e.shards[first], ops, sc.groups[first])
	}
	sc.wg.Wait()
	for _, i := range sc.spanning {
		op := &ops[i]
		n := int64(len(op.Data) / e.csize)
		sc.touched = e.touchedShards(sc.touched[:0], op.LBA, n)
		e.writeSpanning(op, sc.touched)
	}
	clear(sc.touched)
}

// writeGroup runs one shard's ops under a single exclusive lock hold.
//
//eplog:hotpath
func (e *EPLog) writeGroup(sh *shard, ops []BatchOp, idxs []int) {
	t0 := sh.lockClock()
	sh.mu.Lock()
	sh.lockAcquired(t0)
	for _, i := range idxs {
		op := &ops[i]
		e.finishWrite(sh, sh.writePart(op, nil, true), op)
	}
	sh.lockReleasing()
	sh.mu.Unlock()
}

// writeSpanning runs a stripe-spanning op part by part over its touched
// shards in ascending order, one lock at a time. The first part counts the
// request and owns the op's SpanWrite root; later parts attach to it. A
// failed part stops the op.
//
//eplog:hotpath
func (e *EPLog) writeSpanning(op *BatchOp, touched []*shard) {
	var root *obs.Span
	for j, sh := range touched {
		t0 := sh.lockClock()
		sh.mu.Lock()
		sh.lockAcquired(t0)
		root = sh.writePart(op, root, j == 0)
		sh.lockReleasing()
		sh.mu.Unlock()
		if op.Err != nil {
			break
		}
	}
	e.finishWrite(touched[0], root, op)
}

// finishWrite publishes a write's SpanWrite root on its owner's recorder
// and, on success, records the latency observation and trace event.
//
//eplog:hotpath
func (e *EPLog) finishWrite(owner *shard, root *obs.Span, op *BatchOp) {
	owner.rec.Finish(root, op.End)
	if op.Err != nil {
		return
	}
	e.bumpVnow(op.End)
	e.mWriteLat.Observe(op.End - op.Start)
	e.obs.Emit(obs.Event{Kind: obs.KindWrite, T: op.Start, Dur: op.End - op.Start, Dev: -1,
		LBA: op.LBA, N: int64(len(op.Data) / e.csize)})
}

// NumShards reports the engine's shard count after clamping.
func (e *EPLog) NumShards() int { return e.nShards }

// ShardLockAcquisitions returns the cumulative number of exclusive shard
// lock acquisitions taken through the engine's write/commit brackets. It
// is the batching payoff metric: coalescing N ops into one batch takes one
// acquisition per touched shard instead of one per op.
func (e *EPLog) ShardLockAcquisitions() int64 { return e.lockAcqs.Load() }

// WritePressure reports the engine's write backpressure signal in [0, 1]:
// the worst shard's log-region occupancy, or its dirty-window fill when a
// write-behind window is configured, whichever is higher. The network
// server gates socket reads on it so a saturated log region throttles
// clients instead of buffering requests unboundedly.
func (e *EPLog) WritePressure() float64 {
	var p float64
	w := e.cfg.DirtyWindowStripes
	for _, sh := range e.shards {
		sh.mu.RLock()
		if region := sh.logLimit - sh.logStart; region > 0 {
			if f := float64(sh.logCursor-sh.logStart) / float64(region); f > p {
				p = f
			}
		}
		if w > 0 {
			if f := float64(len(sh.logStripes)) / float64(w); f > p {
				p = f
			}
		}
		sh.mu.RUnlock()
	}
	return min(p, 1)
}
