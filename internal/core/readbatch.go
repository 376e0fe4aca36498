package core

import (
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// Batched reads
// -------------
//
// ReadBatch is the read-side twin of WriteBatch: the network server
// coalesces READ requests from many connections into one batch before
// entering the engine, so unrelated clients amortize the per-request
// synchronization. Where WriteBatch amortizes exclusive lock acquisitions,
// ReadBatch amortizes the seqlock sampling of the lock-free pass — one
// epoch sample and one validation per shard group instead of one per
// request — and, when buffers or degraded state force the locked pass, one
// shared lock acquisition per shard group instead of one per request.
//
// Within a group the ops are sorted by LBA, so a batch of sequential
// single-chunk reads walks the address space in one ascending pass.
// Per-op observability is preserved exactly: each op gets its own SpanRead
// root, read latency observation, and trace event, so span-vs-counter
// reconciliation holds whatever the batch size.
//
// Ordering: a batch takes each group's snapshot at one instant (one epoch
// validation or one lock hold), so ops in one group see a consistent
// cross-op snapshot; across groups there is no ordering guarantee — the
// same contract the wire protocol gives pipelined requests.

// ReadOp is one read in a batch. Buf is the caller-owned destination (a
// positive chunk multiple); Start is the op's virtual start time; End and
// Err carry the per-op result back, matching ReadChunks.
type ReadOp struct {
	LBA   int64
	Buf   []byte
	Start float64

	End float64
	Err error
}

// ReadChunks implements store.Store as a one-op ReadBatch. Reads return
// the latest acknowledged contents: buffered chunks come straight from
// memory, and chunks on failed devices are reconstructed through whichever
// stripe protects their latest version — the data stripe (committed) or a
// log stripe (pending). A read spanning several shards is served as one
// pass over all of them, so it sees a whole-request snapshot.
func (e *EPLog) ReadChunks(start float64, lba int64, p []byte) (float64, error) {
	sc := e.getBatch()
	op := &sc.rop[0]
	*op = ReadOp{LBA: lba, Buf: p, Start: start}
	e.readBatch(sc, sc.rop[:])
	end, err := op.End, op.Err
	*op = ReadOp{} // do not pin the caller's buffer
	batchPool.Put(sc)
	return end, err
}

// ReadBatch applies every op, filling each op's End and Err in place.
// Each shard's group is served by one readPass, on the caller's goroutine
// for the first group and on one goroutine per further group; spanning ops
// then get one pass each over their touched shards. Failures are per-op: a
// bad or failed op never prevents the rest of the batch from running.
func (e *EPLog) ReadBatch(ops []ReadOp) {
	if len(ops) == 0 {
		return
	}
	sc := e.getBatch()
	e.readBatch(sc, ops)
	batchPool.Put(sc)
}

//eplog:hotpath
func (e *EPLog) readBatch(sc *batchScratch, ops []ReadOp) {
	e.cReadBatches.Inc()
	e.cReadBatchOps.Add(int64(len(ops)))
	sc.spans = grow(sc.spans, len(ops))
	sc.epochs = grow(sc.epochs, e.nShards)
	for i := range ops {
		op := &ops[i]
		n, err := e.checkOp(op.LBA, len(op.Buf), "buffer")
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
		// Ascending-LBA order inside the group turns adjacent ops into one
		// contiguous scan; insertion sort keeps the grouping allocation-free.
		sortByLBA(ops, g)
		if first < 0 {
			first = si
			continue
		}
		sc.wg.Add(1)
		go func() { //eplog:alloc-ok one closure per extra shard group; single-group batches run inline
			e.readPass(e.shards[si:si+1], ops, g, sc.spans, sc.epochs[si:si+1])
			sc.wg.Done()
		}()
	}
	if first >= 0 {
		e.readPass(e.shards[first:first+1], ops, sc.groups[first], sc.spans, sc.epochs[first:first+1])
	}
	sc.wg.Wait()
	for j, i := range sc.spanning {
		op := &ops[i]
		n := int64(len(op.Buf) / e.csize)
		sc.touched = e.touchedShards(sc.touched[:0], op.LBA, n)
		e.readPass(sc.touched, ops, sc.spanning[j:j+1], sc.spans, sc.epochs[:len(sc.touched)])
	}
	clear(sc.touched)
	clear(sc.spans)
}

// sortByLBA insertion-sorts the op indices in idxs by their op's LBA.
// Batches are small (the server bounds them at BatchMax), so insertion
// sort wins over sort.Slice and allocates nothing.
//
//eplog:hotpath
func sortByLBA(ops []ReadOp, idxs []int) {
	for i := 1; i < len(idxs); i++ {
		x := idxs[i]
		j := i - 1
		for j >= 0 && ops[idxs[j]].LBA > ops[x].LBA {
			idxs[j+1] = idxs[j]
			j--
		}
		idxs[j+1] = x
	}
}

// readPass serves ops[idxs], every one of which lies within the shards of
// set (ascending), as one snapshot. spans is the batch-wide per-op span
// table and epochs holds one seqlock slot per shard of set; the pass
// touches only its own entries, so concurrent passes share both safely.
//
// Devices of the serial engine (one shard, one worker) are unwrapped, so
// its pass takes the exclusive lock to serialize device access and
// virtual-time accounting — exactly the unsharded engine's behaviour. On
// Locked-wrapped devices the pass first tries the lock-free readFast and
// falls back to holding every shard of set shared.
//
//eplog:hotpath
func (e *EPLog) readPass(set []*shard, ops []ReadOp, idxs []int, spans []device.Span, epochs []uint64) {
	if !e.lockedDevs {
		sh := set[0]
		t0 := sh.lockClock()
		sh.mu.Lock()
		sh.lockAcquired(t0)
		e.readLocked(ops, idxs, spans)
		sh.lockReleasing()
		sh.mu.Unlock()
		return
	}
	if e.fastReads && e.readFast(set, ops, idxs, spans, epochs) {
		return
	}
	// One shared acquisition per shard covers every op of the pass — the
	// read-side batching payoff (ReadLockAcquisitions is the numerator).
	for _, sh := range set {
		sh.mu.RLock() //eplog:lockall set is in ascending shard order, and no pass holds a lock while taking another's
	}
	e.readLockAcqs.Add(int64(len(set)))
	e.cReadLocks.Add(int64(len(set)))
	e.cReadBatchLocked.Inc()
	e.readLocked(ops, idxs, spans)
	for _, sh := range set {
		sh.mu.RUnlock()
	}
}

// readLocked reads ops[idxs] chunk by chunk with the owning shards'
// locks held, reconstructing chunks on failed devices. Each op's SpanRead
// root is started before its I/O and records every device read —
// degraded-read reconstruction traffic included — as an io-read leaf.
//
//eplog:hotpath
func (e *EPLog) readLocked(ops []ReadOp, idxs []int, spans []device.Span) {
	for _, i := range idxs {
		op := &ops[i]
		sp := &spans[i]
		sp.Reset(op.Start)
		nChunks := int64(len(op.Buf) / e.csize)
		rsh := e.shardOfLBA(op.LBA)
		root := rsh.rec.Start(obs.SpanRead, rsh.idx, op.Start, op.LBA, nChunks)
		sp.SetRecorder(root)
		lba, buf, csize := op.LBA, op.Buf, int64(e.csize)
		var err error
		for off := int64(0); off < nChunks && err == nil; off++ {
			err = e.readLBA(sp, lba+off, buf[off*csize:(off+1)*csize])
		}
		if err == nil {
			err = sp.Err()
		}
		op.Err = err
		// Partial-failure contract: the span's progress (not the start)
		// comes back with an error, covering the reads already issued.
		op.End = sp.End()
		sp.SetRecorder(nil)
		e.finishRead(rsh, root, op)
	}
}

// readFast is the optimistic lock-free pass: sample the epochs of every
// shard of set (any odd epoch means a writer is inside its critical
// section — give up at once), read every chunk through the packed atomic
// location words, and re-validate that no epoch moved. A moved epoch means
// a writer overlapped the pass and may have relocated or released a chunk
// mid-flight, so the buffers are untrusted: the pass reports false and the
// caller redoes it under the shared locks. Validating every shard for the
// whole pass (not per chunk) preserves the cross-op snapshot of the locked
// pass. Device errors (including ErrFailed) also fall back, so degraded
// reads keep their locked reconstruction path. Only called when
// e.fastReads (no RAM buffers, whose maps cannot be read without the
// lock). The spans of an abandoned pass are simply reset by the retry.
//
//eplog:seqlock-read
func (e *EPLog) readFast(set []*shard, ops []ReadOp, idxs []int, spans []device.Span, epochs []uint64) bool {
	odd := false
	forShards(set, func(j int, sh *shard) {
		epochs[j] = sh.epoch.Load()
		odd = odd || epochs[j]&1 != 0
	})
	if odd {
		return false
	}
	for _, i := range idxs {
		op := &ops[i]
		sp := &spans[i]
		sp.Reset(op.Start)
		lba, buf, csize := op.LBA, op.Buf, int64(e.csize)
		for off := int64(0); off < int64(len(buf))/csize; off++ {
			loc := e.loadLatest(lba + off)
			if sp.Read(e.devs[loc.Dev], loc.Chunk, buf[off*csize:(off+1)*csize]) != nil {
				return false
			}
		}
	}
	moved := false
	forShards(set, func(j int, sh *shard) {
		moved = moved || sh.epoch.Load() != epochs[j]
	})
	if moved {
		return false
	}
	// Record each op's envelope only after validation, so an abandoned
	// pass leaves no trace and the locked retry records exactly one read.
	// The recorder is internally locked and the times are explicit, so
	// recording after completion yields the same tree.
	for _, i := range idxs {
		op := &ops[i]
		op.End = spans[i].End()
		rsh := e.shardOfLBA(op.LBA)
		e.finishRead(rsh, rsh.rec.Start(obs.SpanRead, rsh.idx, op.Start, op.LBA, int64(len(op.Buf)/e.csize)), op)
	}
	return true
}

// forShards calls f for each shard of set in order, with its index. The
// lock-free pass samples and validates its epochs through it.
func forShards(set []*shard, f func(int, *shard)) {
	for j, sh := range set {
		f(j, sh)
	}
}

// finishRead publishes a read's SpanRead root on the recorder of the
// shard owning its first stripe and, on success, records the latency
// observation and trace event — the same envelope whichever pass served
// the read, so the flight recorder cannot tell batched from single reads.
//
//eplog:hotpath
func (e *EPLog) finishRead(rsh *shard, root *obs.Span, op *ReadOp) {
	rsh.rec.Finish(root, op.End)
	if op.Err != nil {
		return
	}
	e.bumpVnow(op.End)
	e.mReadLat.Observe(op.End - op.Start)
	e.obs.Emit(obs.Event{Kind: obs.KindRead, T: op.Start, Dur: op.End - op.Start,
		Dev: -1, LBA: op.LBA, N: int64(len(op.Buf) / e.csize)})
}

// ReadLockAcquisitions returns the cumulative number of shared shard-lock
// acquisitions taken by locked read passes. It is the read-side batching
// payoff metric: coalescing N locked reads into one batch takes one
// acquisition per touched shard group instead of one per op, and
// lock-free reads take none at all.
func (e *EPLog) ReadLockAcquisitions() int64 { return e.readLockAcqs.Load() }
