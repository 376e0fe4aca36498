package core

import (
	"errors"
	"fmt"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/device"
)

// readLBA reads the latest contents of one logical chunk. The lock of the
// shard owning the LBA's stripe must be held (shared suffices).
func (e *EPLog) readLBA(span *device.Span, lba int64, out []byte) error {
	sh := e.shardOfLBA(lba)
	// Pending writes in memory win.
	if sh.devBufs != nil {
		dev := e.loadLatest(lba).Dev
		if data, ok := sh.devBufs[dev].get(lba); ok {
			copy(out, data)
			return nil
		}
	}
	if sh.stripeBuf != nil {
		s, _ := e.geo.Stripe(lba)
		if data, ok := sh.stripeBuf.peek(s, lba); ok {
			copy(out, data)
			return nil
		}
	}

	loc := e.loadLatest(lba)
	err := span.Read(e.devs[loc.Dev], loc.Chunk, out)
	if err == nil {
		return nil
	}
	if !errors.Is(err, device.ErrFailed) {
		return err
	}
	span.ClearErr()
	return e.degradedRead(span, lba, out)
}

// degradedRead reconstructs the latest version of an LBA whose device has
// failed.
func (e *EPLog) degradedRead(span *device.Span, lba int64, out []byte) error {
	e.mDegradedReads.Inc()
	if prot := e.latestProt[lba]; prot != committed {
		ls, ok := e.shardOfLBA(lba).logStripes[prot]
		if !ok {
			return fmt.Errorf("core: protector log stripe %d missing for lba %d", prot, lba)
		}
		shard, err := e.decodeLogStripe(span, ls, lba)
		if err != nil {
			return err
		}
		copy(out, shard)
		bufpool.Default.Put(shard)
		return nil
	}
	s, slot := e.geo.Stripe(lba)
	shards, err := e.decodeCommitted(span, s)
	if err != nil {
		return err
	}
	copy(out, shards[slot])
	bufpool.Default.PutSlices(shards)
	return nil
}

// decodeLogStripe reconstructs the version of wantLBA protected by log
// stripe ls, reading the surviving members from the SSDs and the log
// chunks from the log devices. The returned shard is an arena buffer the
// caller must Put once its contents are consumed; every other buffer is
// returned internally.
func (e *EPLog) decodeLogStripe(span *device.Span, ls *logStripe, wantLBA int64) ([]byte, error) {
	kPrime, m := len(ls.members), e.geo.M()
	shards := make([][]byte, kPrime+m)
	want := -1
	readShard := func(i int, dev device.Dev, chunk int64) error {
		buf := bufpool.Default.Get(e.csize)
		if err := span.Read(dev, chunk, buf); err != nil {
			bufpool.Default.Put(buf)
			if !errors.Is(err, device.ErrFailed) {
				return err
			}
			span.ClearErr()
			return nil
		}
		shards[i] = buf
		return nil
	}
	for i, mb := range ls.members {
		if mb.lba == wantLBA {
			want = i
		}
		if err := readShard(i, e.devs[mb.loc.Dev], mb.loc.Chunk); err != nil {
			bufpool.Default.PutSlices(shards)
			return nil, err
		}
	}
	if want < 0 {
		bufpool.Default.PutSlices(shards)
		return nil, fmt.Errorf("core: lba %d not a member of log stripe %d", wantLBA, ls.id)
	}
	for i := 0; i < m; i++ {
		if err := readShard(kPrime+i, e.logDevs[i], ls.logPos); err != nil {
			bufpool.Default.PutSlices(shards)
			return nil, err
		}
	}
	err := func() error {
		code, err := e.code(kPrime)
		if err != nil {
			return err
		}
		if err := code.ReconstructData(shards); err != nil {
			return fmt.Errorf("%w: log stripe %d: %v", ErrTooManyFailures, ls.id, err)
		}
		return nil
	}()
	if err != nil {
		bufpool.Default.PutSlices(shards)
		return nil, err
	}
	out := shards[want]
	shards[want] = nil
	bufpool.Default.PutSlices(shards)
	return out, nil
}

// decodeCommitted reconstructs the committed contents of every data slot
// of a stripe from the surviving committed chunks and parity. It returns
// the full k+m shard table: the data slots [0,k) are all populated with
// arena buffers, the parity slots hold whatever parity was read (possibly
// nil). The caller owns every buffer and returns them with PutSlices.
func (e *EPLog) decodeCommitted(span *device.Span, stripe int64) ([][]byte, error) {
	k, m := e.geo.K, e.geo.M()
	home := e.geo.HomeChunk(stripe)
	shards := make([][]byte, k+m)
	readShard := func(i int, dev device.Dev, chunk int64) error {
		buf := bufpool.Default.Get(e.csize)
		if err := span.Read(dev, chunk, buf); err != nil {
			bufpool.Default.Put(buf)
			if !errors.Is(err, device.ErrFailed) {
				return err
			}
			span.ClearErr()
			return nil
		}
		shards[i] = buf
		return nil
	}
	for j := 0; j < k; j++ {
		loc := e.commLoc[e.geo.LBA(stripe, j)]
		if err := readShard(j, e.devs[loc.Dev], loc.Chunk); err != nil {
			bufpool.Default.PutSlices(shards)
			return nil, err
		}
	}
	for i := 0; i < m; i++ {
		if err := readShard(k+i, e.devs[e.geo.ParityDev(stripe, i)], home); err != nil {
			bufpool.Default.PutSlices(shards)
			return nil, err
		}
	}
	err := func() error {
		code, err := e.code(k)
		if err != nil {
			return err
		}
		if err := code.ReconstructData(shards); err != nil {
			return fmt.Errorf("%w: stripe %d: %v", ErrTooManyFailures, stripe, err)
		}
		return nil
	}()
	if err != nil {
		bufpool.Default.PutSlices(shards)
		return nil, err
	}
	return shards, nil
}
