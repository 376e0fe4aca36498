package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// sample is a set of durations in nanoseconds.
type sample []int64

// quantile returns the nearest-rank q-quantile in microseconds, or 0 for an
// empty sample. It sorts the sample in place.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / 1e3
}

// sum returns the total in nanoseconds.
func (s sample) sum() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// subWindows is how many equal parts a net run's timed window is split
// into. Latency percentiles and throughput are computed per part and the
// median part is reported, so a transient stall of the host moves one part
// rather than the result.
const subWindows = 5

// windowed holds one sample per sub-window (or per replay).
type windowed []sample

// all returns every sub-window's samples as one sample.
func (w windowed) all() sample {
	var s sample
	for _, x := range w {
		s = append(s, x...)
	}
	return s
}

// merge adds o's samples to w sub-window by sub-window.
func (w windowed) merge(o windowed) windowed {
	for len(w) < len(o) {
		w = append(w, nil)
	}
	for k := range o {
		w[k] = append(w[k], o[k]...)
	}
	return w
}

// perWindow reports whether every sub-window holds at least ten samples
// beyond its q-quantile, so that the quantile can be taken per sub-window.
func (w windowed) perWindow(q float64) bool {
	for _, s := range w {
		if beyond(len(s), q) < 10 {
			return false
		}
	}
	return len(w) > 0
}

// overAll reports whether all samples together hold at least ten beyond
// their q-quantile.
func (w windowed) overAll(q float64) bool { return beyond(len(w.all()), q) >= 10 }

// quantile returns the median over the sub-windows of each one's
// q-quantile, in microseconds. When some sub-window has too few samples
// for it but all samples together have enough, it returns the q-quantile
// of all samples instead.
func (w windowed) quantile(q float64) float64 {
	if !w.perWindow(q) && w.overAll(q) {
		return w.all().quantile(q)
	}
	return w.medianQuantile(q)
}

// medianQuantile returns the median over the sub-windows of each one's
// q-quantile, in microseconds, however few samples lie beyond it.
func (w windowed) medianQuantile(q float64) float64 {
	var qs []float64
	for _, s := range w {
		qs = append(qs, s.quantile(q))
	}
	return median(qs)
}

// beyond returns how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// median returns the median of xs, or 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// Go runtime counters read at the edges of a timed window.
var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
}

// runtimeSnap is one reading of runtimeSamples.
type runtimeSnap struct {
	allocs, bytes, cycles uint64
	pauses                *metrics.Float64Histogram
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var r runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.bytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.cycles = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		r.pauses = s[3].Value.Float64Histogram()
	}
	return r
}

// runtimeDelta is the Go runtime's work over a window.
type runtimeDelta struct {
	allocs, bytes, cycles float64
	pauseP99us            float64
}

// since returns the runtime work done between r0 and r.
func (r runtimeSnap) since(r0 runtimeSnap) runtimeDelta {
	d := runtimeDelta{
		allocs: float64(r.allocs - r0.allocs),
		bytes:  float64(r.bytes - r0.bytes),
		cycles: float64(r.cycles - r0.cycles),
	}
	if r.pauses == nil || r0.pauses == nil || len(r.pauses.Counts) != len(r0.pauses.Counts) {
		return d
	}
	counts := make([]uint64, len(r.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = r.pauses.Counts[i] - r0.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return d
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= need {
			// Buckets[i+1] is the bucket's upper edge; the last edge may
			// be +Inf, in which case the lower edge is the best bound.
			hi := r.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = r.pauses.Buckets[i]
			}
			d.pauseP99us = hi * 1e6
			break
		}
	}
	return d
}

// clock stamps events as nanoseconds since a base instant, on the
// monotonic clock.
type clock struct{ base time.Time }

func newClock() clock { return clock{base: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.base)) }
