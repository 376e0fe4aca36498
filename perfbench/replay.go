package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/eplog/eplog"
	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/trace"
)

// trace-replay replays the paper's synthetic FIN profile (Table I) at a
// reduced scale: the working set divided by replayWSDivisor, and
// replayWrites update requests.
const (
	replayProfile   = "FIN"
	replayWSDivisor = 128
	replayWrites    = 150000
	// replayHeadroom bounds each SSD's update area to this fraction of the
	// stripe count, as Experiment 2 does, so space-exhaustion commits
	// recycle the logical space and the FTL collects garbage.
	replayHeadroom = 0.5
	// readStripes is how many consecutive stripes one read-back request
	// reads, and readRepeats how many times the read-back reads each.
	readStripes = 8
	readRepeats = 3
	// After the replay's own closing commit, flushRounds rounds each
	// update one chunk in each of flushStripes distinct stripes and time
	// the Flush + Commit that folds them: commits of one fixed size, where
	// the closing commit's size depends on how far the trace ran past its
	// last space-exhaustion commit.
	flushRounds  = 100
	flushStripes = 128
)

// replayTrace is the generated update stream, clamped to the array.
type replayTrace struct {
	lbas      []int64
	chunks    []int32
	stripes   int64
	wsMB      int64
	maxChunks int // largest request
	seed      int64
}

func makeReplayTrace(seed int64) (*replayTrace, error) {
	prof, err := trace.LookupProfile(replayProfile)
	if err != nil {
		return nil, err
	}
	prof = prof.Scaled(replayWSDivisor)
	prof.Writes = replayWrites
	prof.Seed = seed
	tr := prof.Generate(chunkSize)
	wsChunks := (tr.MaxOffset() + chunkSize - 1) / chunkSize
	rt := &replayTrace{stripes: max((wsChunks+serveK-1)/serveK, 4), wsMB: prof.WorkingSetMB, seed: seed}
	logical := rt.stripes * serveK
	for _, r := range tr.Writes() {
		lba, n := trace.ChunkSpan(r.Offset, r.Size, chunkSize)
		if n == 0 {
			continue
		}
		lba = min(lba, logical-1)
		n = min(n, logical-lba)
		rt.lbas = append(rt.lbas, lba)
		rt.chunks = append(rt.chunks, int32(n))
		rt.maxChunks = max(rt.maxChunks, int(n))
	}
	return rt, nil
}

// replayArray is what the replay needs from the array: *eplog.Array, or
// the engine itself on traced runs.
type replayArray interface {
	WriteAt(start float64, lba int64, p []byte) (float64, error)
	ReadAt(start float64, lba int64, p []byte) (float64, error)
	Flush() error
	Commit() error
	Verify() (*core.VerifyReport, error)
	Stats() core.Stats
	Close() error
}

// coreArray adapts the engine to replayArray; eplog.Array's methods are
// these calls with nothing added when checkpointing is off.
type coreArray struct{ *core.EPLog }

func (c coreArray) WriteAt(start float64, lba int64, p []byte) (float64, error) {
	return c.WriteChunks(start, lba, p)
}

func (c coreArray) ReadAt(start float64, lba int64, p []byte) (float64, error) {
	return c.ReadChunks(start, lba, p)
}

// replaySizing derives Experiment 2's array shape for the trace.
type replaySizing struct {
	ssdRawBytes, hddChunks, commitGuard int64
}

func sizeReplay(stripes int64) replaySizing {
	const pagesPerBlock = 64
	devChunks := stripes + int64(replayHeadroom*float64(stripes)) + 64
	blocks := (int64(float64(devChunks)/0.85) + pagesPerBlock) / pagesPerBlock
	for int64(float64(blocks*pagesPerBlock)*0.85) < devChunks {
		blocks++
	}
	// Commit before the flash reaches a utilization the FTL cannot collect
	// out of: cap the live logical footprint at 88% of the raw pages left
	// after the FTL's clean-block reserves.
	maxLive := int64(0.88 * float64(blocks*pagesPerBlock-4*pagesPerBlock))
	guard := max(devChunks-maxLive, 16)
	return replaySizing{
		ssdRawBytes: blocks * pagesPerBlock * chunkSize,
		hddChunks:   stripes*2 + 64,
		commitGuard: guard,
	}
}

// replayRun accumulates the outcome of one or more replays.
type replayRun struct {
	setups     []float64
	write      windowed // one sub-window per replay
	read       windowed
	flush      windowed
	opsPerSec  []float64 // per replay
	requests   int64
	userBytes  int64
	wall       float64 // seconds spent in the update replay loops
	virtual    float64 // virtual seconds of the update replays
	stats      core.Stats
	dev        devCounters
	mismatches int64
	firstErr   error
	rt         runtimeDelta
	replays    int
	readCalls  int64 // ReadAt calls of the read-backs
	flushOps   int64 // writes and Flush + Commit pairs of the flush rounds
	rss        float64

	// Traced runs only.
	devs            []*devShim
	locks, rdLocks  int64
	window0, window int64
}

// stamp writes the chunk's identity into its first 16 bytes; the rest of
// every chunk is the shared base pattern.
func stamp(p []byte, lba int64, version int64) {
	binary.LittleEndian.PutUint64(p[0:], uint64(lba))
	binary.LittleEndian.PutUint64(p[8:], uint64(version))
}

// replayOnce builds a fresh array, preconditions it, replays the trace with
// synchronous virtual-time writes, commits parity, times the flush rounds,
// and checks the result: Verify must pass and every stripe must read back
// bit-exact.
func replayOnce(rt *replayTrace, base []byte, out *replayRun, rec *recorder) error {
	sz := sizeReplay(rt.stripes)
	t0 := time.Now()
	ssds := make([]eplog.BlockDevice, serveK+serveM)
	hdds := make([]eplog.BlockDevice, serveM)
	var err error
	for i := range ssds {
		if ssds[i], err = eplog.NewSimulatedSSD(sz.ssdRawBytes); err != nil {
			return err
		}
	}
	for i := range hdds {
		if hdds[i], err = eplog.NewSimulatedHDD(sz.hddChunks, chunkSize); err != nil {
			return err
		}
	}
	cfg := eplog.Config{K: serveK, Stripes: rt.stripes, TrimOnCommit: true, CommitGuardChunks: sz.commitGuard}
	var a replayArray
	var e *core.EPLog
	if rec != nil {
		wrap := func(role string, ds []eplog.BlockDevice) []device.Dev {
			o := make([]device.Dev, len(ds))
			for i, d := range ds {
				sh := newDevShim(d, fmt.Sprintf("%s%d", role, i), role == "ssd", rec)
				out.devs = append(out.devs, sh)
				o[i] = sh
			}
			return o
		}
		e, err = core.New(wrap("ssd", ssds), wrap("hdd", hdds), core.Config{
			K: cfg.K, Stripes: cfg.Stripes, TrimOnCommit: cfg.TrimOnCommit, CommitGuardChunks: cfg.CommitGuardChunks,
		})
		a = coreArray{e}
	} else {
		a, err = eplog.New(ssds, hdds, cfg)
	}
	if err != nil {
		return err
	}
	defer a.Close()

	logical := rt.stripes * serveK
	version := make([]int64, logical)
	buf := make([]byte, max(serveK, rt.maxChunks)*chunkSize)
	for off := 0; off < len(buf); off += chunkSize {
		copy(buf[off:off+chunkSize], base)
	}
	for s := int64(0); s < rt.stripes; s++ {
		for j := int64(0); j < serveK; j++ {
			stamp(buf[j*chunkSize:], s*serveK+j, 0)
		}
		if _, err := a.WriteAt(0, s*serveK, buf[:serveK*chunkSize]); err != nil {
			return fmt.Errorf("precondition stripe %d: %w", s, err)
		}
	}
	out.setups = append(out.setups, time.Since(t0).Seconds())

	s0, d0 := a.Stats(), readDevCounters(ssds, hdds)
	if e != nil {
		out.locks, out.rdLocks = e.ShardLockAcquisitions(), e.ReadLockAcquisitions()
	}
	rt0 := readRuntime()
	clk := newClock()
	if rec != nil {
		clk = rec.clk
		rec.on.Store(true)
		out.window0 = clk.now()
	}
	now := replayEpoch
	var write, read sample
	start := clk.now()
	for i, lba := range rt.lbas {
		n := int64(rt.chunks[i])
		p := buf[:n*chunkSize]
		for j := int64(0); j < n; j++ {
			stamp(p[j*chunkSize:], lba+j, int64(i)+1)
			version[lba+j] = int64(i) + 1
		}
		w0 := clk.now()
		end, err := a.WriteAt(now, lba, p)
		write = append(write, clk.now()-w0)
		if err != nil {
			return fmt.Errorf("replay request %d at %d: %w", i, lba, err)
		}
		now = end
		out.userBytes += n * chunkSize
	}
	wall := float64(clk.now()-start) / 1e9
	out.wall += wall
	out.opsPerSec = append(out.opsPerSec, float64(len(rt.lbas))/wall)
	out.write = append(out.write, write)
	out.virtual += now - replayEpoch
	out.requests += int64(len(rt.lbas))

	if err := flushCommit(a); err != nil {
		return err
	}
	out.rt = out.rt.plus(readRuntime().since(rt0))
	out.stats = statsPlus(out.stats, statsMinus(a.Stats(), s0))
	out.dev = out.dev.plus(readDevCounters(ssds, hdds).minus(d0))
	if e != nil {
		// The trace's writes and closing commit, as the stats above.
		out.locks = e.ShardLockAcquisitions() - out.locks
	}

	rng := rand.New(rand.NewSource(rt.seed))
	nextVersion := int64(len(rt.lbas)) + 1
	var flush sample
	for r := 0; r < flushRounds; r++ {
		for _, s := range rng.Perm(int(rt.stripes))[:min(flushStripes, int(rt.stripes))] {
			lba := int64(s)*serveK + rng.Int63n(serveK)
			stamp(buf, lba, nextVersion)
			version[lba] = nextVersion
			nextVersion++
			if now, err = a.WriteAt(now, lba, buf[:chunkSize]); err != nil {
				return fmt.Errorf("flush round %d write at %d: %w", r, lba, err)
			}
			out.flushOps++
		}
		f0 := clk.now()
		if err := flushCommit(a); err != nil {
			return fmt.Errorf("flush round %d: %w", r, err)
		}
		flush = append(flush, clk.now()-f0)
		out.flushOps++
	}
	out.flush = append(out.flush, flush)

	rep, err := a.Verify()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !rep.OK() {
		out.mismatches += int64(len(rep.BadDataStripes) + len(rep.BadLogStripes))
		if out.firstErr == nil {
			out.firstErr = fmt.Errorf("verify: bad data stripes %v, bad log stripes %v", rep.BadDataStripes, rep.BadLogStripes)
		}
	}
	// The read-back reads every stripe, readStripes at a time, compares the
	// first read bit for bit, and times each request as the fastest of
	// readRepeats reads: single cold reads of one stripe took about a
	// microsecond, and their tail was set by the host's cache misses and
	// clock reads, which varied by a third between runs.
	want := make([]byte, chunkSize)
	copy(want, base)
	got := make([]byte, readStripes*serveK*chunkSize)
	for s := int64(0); s < rt.stripes; s += readStripes {
		first := s * serveK
		p := got[:min(readStripes, rt.stripes-s)*serveK*chunkSize]
		best := int64(math.MaxInt64)
		for r := 0; r < readRepeats; r++ {
			r0 := clk.now()
			_, err := a.ReadAt(0, first, p)
			best = min(best, clk.now()-r0)
			out.readCalls++
			if err != nil {
				return fmt.Errorf("read back stripes at %d: %w", first, err)
			}
			if r > 0 {
				continue
			}
			for j := int64(0); j < int64(len(p)/chunkSize); j++ {
				lba := first + j
				stamp(want, lba, version[lba])
				if string(p[j*chunkSize:(j+1)*chunkSize]) != string(want) {
					out.mismatches++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("read back %d: content differs from version %d", lba, version[lba])
					}
				}
			}
		}
		read = append(read, best)
	}
	out.read = append(out.read, read)
	if rec != nil {
		out.window = clk.now()
		rec.on.Store(false)
	}
	if e != nil {
		out.rdLocks = e.ReadLockAcquisitions() - out.rdLocks
	}
	out.replays++
	out.rss = max(out.rss, peakRSSMiB())
	return nil
}

// flushCommit writes the buffered updates and commits their parity.
func flushCommit(a replayArray) error {
	if err := a.Flush(); err != nil {
		return err
	}
	return a.Commit()
}

// replaySeconds is the nominal wall time of one replay with its set-up and
// checks on the 2-CPU reference host.
const replaySeconds = 2

// replaysFor returns how many replays a window holds, at least one. The
// count depends on the window alone, so a seed's counts repeat exactly.
func replaysFor(window time.Duration) int {
	return max(1, int(window.Seconds()/replaySeconds))
}

// runReplay makes n replays, each on a fresh array with its own trace: the
// FIN profile generated from the seed and the replay's index. It returns
// the first trace for the provenance line.
func runReplay(seed int64, n int, rec *recorder) (*replayRun, *replayTrace, error) {
	out := &replayRun{}
	var first *replayTrace
	for i := 0; i < n; i++ {
		traceSeed := seed<<8 + int64(i)
		rt, err := makeReplayTrace(traceSeed)
		if err != nil {
			return nil, nil, err
		}
		if first == nil {
			first = rt
		}
		base := make([]byte, chunkSize)
		rand.New(rand.NewSource(traceSeed)).Read(base)
		if err := replayOnce(rt, base, out, rec); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		debug.FreeOSMemory()
	}
	return out, first, nil
}

// statsPlus returns a + b, as a - (0 - b).
func statsPlus(a, b core.Stats) core.Stats {
	var zero core.Stats
	return statsMinus(a, statsMinus(zero, b))
}

// plus returns c + o, as c - (0 - o).
func (c devCounters) plus(o devCounters) devCounters {
	return c.minus(devCounters{}.minus(o))
}

func (d runtimeDelta) plus(o runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocs:     d.allocs + o.allocs,
		bytes:      d.bytes + o.bytes,
		cycles:     d.cycles + o.cycles,
		pauseP99us: max(d.pauseP99us, o.pauseP99us),
	}
}
