package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/eplog/eplog/internal/device"
)

// batchEngine builds an engine over plain mem devices with a wide stripe
// count so batches can spread across shards.
func batchEngine(t testing.TB, shards int, stripes int64) *EPLog {
	t.Helper()
	const k, n = 4, 5
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(stripes*4, testChunk)
	}
	logs := []device.Dev{device.NewMem(stripes*8, testChunk)}
	e, err := New(devs, logs, Config{K: k, Stripes: stripes, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// singleChunkOps builds one single-chunk update per stripe, round-robin
// over the first `stripes` stripes.
func singleChunkOps(e *EPLog, nOps int, seed byte) []BatchOp {
	k := int64(e.geo.K)
	ops := make([]BatchOp, nOps)
	for i := range ops {
		s := int64(i) % e.cfg.Stripes
		data := make([]byte, testChunk)
		for j := range data {
			data[j] = seed + byte(i) + byte(j)
		}
		ops[i] = BatchOp{LBA: s*k + int64(i)%k, Data: data}
	}
	return ops
}

// TestWriteBatchMatchesSequential writes the same op stream batched and
// sequentially (on twin engines) and demands identical device contents,
// stats, and per-op success.
func TestWriteBatchMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eb := batchEngine(t, shards, 64)
			es := batchEngine(t, shards, 64)
			defer eb.Close()
			defer es.Close()

			ops := singleChunkOps(eb, 48, 7)
			eb.WriteBatch(ops)
			for i := range ops {
				if ops[i].Err != nil {
					t.Fatalf("batched op %d: %v", i, ops[i].Err)
				}
			}
			for i := range ops {
				if _, err := es.WriteChunks(ops[i].Start, ops[i].LBA, ops[i].Data); err != nil {
					t.Fatalf("sequential op %d: %v", i, err)
				}
			}

			want := make([]byte, eb.Chunks()*int64(testChunk))
			got := make([]byte, len(want))
			if _, err := es.ReadChunks(0, 0, want); err != nil {
				t.Fatal(err)
			}
			if _, err := eb.ReadChunks(0, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("batched and sequential engines diverged")
			}
			sb, ss := eb.Stats(), es.Stats()
			if sb != ss {
				t.Fatalf("stats diverged:\nbatched:    %+v\nsequential: %+v", sb, ss)
			}
		})
	}
}

// TestWriteBatchFewerLockAcquisitions is the acceptance check: batching
// the same op count takes strictly fewer shard lock acquisitions than
// one-op-per-entry.
func TestWriteBatchFewerLockAcquisitions(t *testing.T) {
	const nOps = 64
	eb := batchEngine(t, 4, 64)
	es := batchEngine(t, 4, 64)
	defer eb.Close()
	defer es.Close()

	ops := singleChunkOps(eb, nOps, 3)
	base := eb.ShardLockAcquisitions()
	eb.WriteBatch(ops)
	batched := eb.ShardLockAcquisitions() - base

	ops2 := singleChunkOps(es, nOps, 3)
	base = es.ShardLockAcquisitions()
	for i := range ops2 {
		if _, err := es.WriteChunks(0, ops2[i].LBA, ops2[i].Data); err != nil {
			t.Fatal(err)
		}
	}
	sequential := es.ShardLockAcquisitions() - base

	if batched >= sequential {
		t.Fatalf("batched %d acquisitions, sequential %d: batching must be strictly cheaper", batched, sequential)
	}
	if batched != int64(eb.NumShards()) {
		t.Errorf("batched acquisitions = %d, want one per shard (%d)", batched, eb.NumShards())
	}
	// One op per call takes the shard lock at least once per op.
	if sequential < nOps {
		t.Errorf("sequential acquisitions = %d, want >= one per op (%d)", sequential, nOps)
	}
}

// TestWriteBatchSpanningOps checks multi-stripe ops of a multi-shard
// engine, which run part by part over their shards after the shard
// groups, still land correctly alongside local ops.
func TestWriteBatchSpanningOps(t *testing.T) {
	e := batchEngine(t, 4, 64)
	defer e.Close()
	k := int64(e.geo.K)

	span := make([]byte, 2*k*testChunk) // two full stripes: crosses a shard boundary
	for i := range span {
		span[i] = byte(i * 31)
	}
	local := make([]byte, testChunk)
	for i := range local {
		local[i] = byte(i ^ 0x5A)
	}
	ops := []BatchOp{
		{LBA: 10 * k, Data: span},
		{LBA: 40*k + 1, Data: local},
	}
	e.WriteBatch(ops)
	for i := range ops {
		if ops[i].Err != nil {
			t.Fatalf("op %d: %v", i, ops[i].Err)
		}
	}
	got := make([]byte, len(span))
	if _, err := e.ReadChunks(0, 10*k, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, span) {
		t.Fatal("spanning op contents lost")
	}
	got = got[:testChunk]
	if _, err := e.ReadChunks(0, 40*k+1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, local) {
		t.Fatal("local op contents lost")
	}
}

// TestWriteBatchPerOpErrors checks invalid ops fail individually without
// taking down the batch.
func TestWriteBatchPerOpErrors(t *testing.T) {
	e := batchEngine(t, 2, 16)
	defer e.Close()
	good := make([]byte, testChunk)
	ops := []BatchOp{
		{LBA: 0, Data: make([]byte, testChunk-1)},        // not a chunk multiple
		{LBA: e.Chunks(), Data: make([]byte, testChunk)}, // out of range
		{LBA: -1, Data: make([]byte, testChunk)},         // negative
		{LBA: 1, Data: good},                             // fine
		{LBA: 0, Data: nil},                              // empty
	}
	e.WriteBatch(ops)
	for _, i := range []int{0, 1, 2, 4} {
		if ops[i].Err == nil {
			t.Errorf("op %d: invalid op accepted", i)
		}
	}
	if ops[3].Err != nil {
		t.Errorf("op 3: valid op failed: %v", ops[3].Err)
	}
}

// TestWritePressure checks the backpressure signal rises with pending log
// stripes and clears after a commit.
func TestWritePressure(t *testing.T) {
	const window = 8
	const k, n = 4, 5
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(testStripes*4, testChunk)
	}
	logs := []device.Dev{device.NewMem(testLogChunks, testChunk)}
	e, err := New(devs, logs, Config{K: k, Stripes: testStripes, DirtyWindowStripes: window})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if p := e.WritePressure(); p != 0 {
		t.Fatalf("fresh engine pressure %v, want 0", p)
	}
	buf := make([]byte, testChunk)
	for i := 0; i < window/2; i++ {
		if _, err := e.WriteChunks(0, int64(i*k), buf); err != nil {
			t.Fatal(err)
		}
	}
	p := e.WritePressure()
	if p < float64(window/2)/float64(window)-1e-9 {
		t.Fatalf("pressure %v after %d pending stripes, want >= %v", p, window/2, float64(window/2)/float64(window))
	}
	if p > 1 {
		t.Fatalf("pressure %v exceeds 1", p)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if p := e.WritePressure(); p != 0 {
		t.Fatalf("pressure %v after commit, want 0", p)
	}
}

// BenchmarkBatchLockAcquisitions reports the lock-acquisition payoff of
// batching at equal op counts: locks/op for batched vs sequential entry.
func BenchmarkBatchLockAcquisitions(b *testing.B) {
	for _, mode := range []string{"sequential", "batched"} {
		b.Run(mode, func(b *testing.B) {
			e := batchEngine(b, 4, 256)
			defer e.Close()
			const batch = 64
			ops := singleChunkOps(e, batch, 11)
			base := e.ShardLockAcquisitions()
			nOps := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "batched" {
					for j := range ops {
						ops[j].Err = nil
					}
					e.WriteBatch(ops)
				} else {
					for j := range ops {
						if _, err := e.WriteChunks(0, ops[j].LBA, ops[j].Data); err != nil {
							b.Fatal(err)
						}
					}
				}
				nOps += batch
			}
			b.StopTimer()
			acq := e.ShardLockAcquisitions() - base
			b.ReportMetric(float64(acq)/float64(nOps), "locks/op")
		})
	}
}
