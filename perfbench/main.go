// Command perfbench is EPLog's end-to-end benchmark. It runs one workload
// for a fixed time, checks the program's outputs, and prints one JSON
// result as the last line of standard output.
//
// Usage, from the root of the repository (run.sh builds it first):
//
//	bash perfbench/run.sh --workload net-update --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - net-update: closed loop, 2 connections x pipeline depth 16, the
//     eplogsoak update mix against the block service on loopback.
//   - net-read: open loop at a fixed rate, seven in eight ops skewed
//     single-chunk reads, the rest single-chunk updates.
//   - trace-replay: the paper's synthetic FIN trace replayed through the
//     public eplog.Array on the serial engine, with virtual-time writes.
//
// With --trace 0 the result holds the end-to-end metrics of an untraced
// run. With --trace 1 it holds the per-layer metrics of a traced run, and
// the span file and per-layer table are written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/eplog/eplog/internal/gf"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupsPerRun is how many times a net run sets its stack up; setup_s is
// the median.
const setupsPerRun = 5

var workloads = []string{"net-update", "net-read", "trace-replay"}

func main() {
	var (
		name    = flag.String("workload", "", "workload: net-update, net-read or trace-replay")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "timed window in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		out     = flag.String("out", filepath.Join(".perfbench", "out"), "directory for the span file and per-layer table")
	)
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	switch *traced {
	case 0:
		res, err = endToEnd(*name, *seed, window)
	case 1:
		res, err = perLayer(*name, *seed, window, *out)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// provenance describes the host, build and workload sizes of a result.
func provenance(name string, seed int64, sizes map[string]any) {
	p := map[string]any{
		"workload":   name,
		"seed":       seed,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"gf_kernel":  gf.KernelName(),
		"sizes":      sizes,
	}
	b, _ := json.Marshal(p) // a map of plain values always marshals
	fmt.Println("provenance", string(b))
}

// netSizes records a net workload's LBA space against the engine's
// dirty window and the SSDs' raw capacity.
func netSizes(w netWorkload) map[string]any {
	chunks := int64(stripes * serveK)
	perConn := chunks / netConns
	s := map[string]any{
		"lba_space_chunks":         chunks,
		"lba_space_mib":            float64(chunks*chunkSize) / (1 << 20),
		"connections":              netConns,
		"chunks_per_connection":    perConn,
		"hot_set_chunks":           perConn / 8 * netConns,
		"dirty_window_stripes":     dirtyWindow,
		"dirty_window_chunks":      int64(dirtyWindow*shards) * (serveK + serveM),
		"ssd_count":                serveK + serveM,
		"ssd_raw_mib_each":         float64(ssdRawBytes(stripes)) / (1 << 20),
		"hdd_log_mib_each":         float64(hddChunks(stripes)*chunkSize) / (1 << 20),
		"pipeline_depth":           w.depth,
		"flush_every_ops":          w.flushEvery,
		"working_set_vs_ssd_raw":   float64(chunks*chunkSize) / float64(ssdRawBytes(stripes)*(serveK+serveM)),
		"working_set_vs_dirty_win": float64(chunks) / float64(dirtyWindow*shards*serveK),
	}
	if w.rate > 0 {
		s["open_loop_rate_ops_per_s"] = w.rate
	}
	return s
}

func replaySizes(rt *replayTrace) map[string]any {
	sz := sizeReplay(rt.stripes)
	logical := rt.stripes * serveK
	return map[string]any{
		"profile":                replayProfile,
		"working_set_mib":        rt.wsMB,
		"lba_space_chunks":       logical,
		"requests":               len(rt.lbas),
		"ssd_count":              serveK + serveM,
		"ssd_raw_mib_each":       float64(sz.ssdRawBytes) / (1 << 20),
		"hdd_log_mib_each":       float64(sz.hddChunks*chunkSize) / (1 << 20),
		"working_set_vs_ssd_raw": float64(logical*chunkSize) / float64(sz.ssdRawBytes*(serveK+serveM)),
		"read_back_stripes":      rt.stripes,
	}
}

func lookupNet(name string) (netWorkload, bool) {
	switch name {
	case netUpdate.name:
		return netUpdate, true
	case netRead.name:
		return netRead, true
	}
	return netWorkload{}, false
}

// metrics builds a result's metric map.
type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// addLatency adds name_p50_us and name_p99_us, each the median over
// sub-windows of that sub-window's percentile, and states the sample
// counts.
func (m metricSet) addLatency(name string, w windowed) { m.addLatencyBy(name, w, false) }

// addReplayLatency adds name_p50_us and name_p99_us, each the median over
// replays of that replay's percentile, even where a replay has few samples
// beyond it: a stall of the host then moves the percentile of the replays
// it falls in, not the 99th percentile of all samples of the run.
func (m metricSet) addReplayLatency(name string, w windowed) { m.addLatencyBy(name, w, true) }

func (m metricSet) addLatencyBy(name string, w windowed, perReplay bool) {
	quantile, basis := w.quantile, func(q float64) string {
		if !w.perWindow(q) && w.overAll(q) {
			return "over all samples"
		}
		return "per sub-window"
	}
	if perReplay {
		quantile, basis = w.medianQuantile, func(float64) string { return "per replay" }
	}
	m.add(name+"_p50_us", quantile(0.5), "us")
	m.add(name+"_p99_us", quantile(0.99), "us")
	var ns []string
	for _, s := range w {
		ns = append(ns, strconv.Itoa(len(s)))
	}
	all := len(w.all())
	fmt.Printf("samples %s: n=%d (%s per sub-window); p50 %s, p99 %s, %d samples beyond the p99\n",
		name, all, strings.Join(ns, ", "), basis(0.5), basis(0.99), beyond(all, 0.99))
}

const mib = 1 << 20

// endToEnd runs the workload untraced and reports the end-to-end metrics.
func endToEnd(name string, seed int64, window time.Duration) (*result, error) {
	if w, ok := lookupNet(name); ok {
		provenance(name, seed, netSizes(w))
		run, err := runNet(w, seed, window, setupsPerRun, false)
		if err != nil {
			return nil, err
		}
		return netResult(run)
	}
	if name == "trace-replay" {
		run, rt, err := runReplay(seed, replaysFor(window), nil)
		if err != nil {
			return nil, err
		}
		provenance(name, seed, replaySizes(rt))
		return replayResult(run), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
}

// netResult reconciles a net run and reports its end-to-end metrics.
func netResult(run *netRun) (*result, error) {
	rc, err := reconcile(run.conns)
	if err != nil {
		return nil, err
	}
	t := run.totals()
	failed := t.failed + rc.mismatches
	if rc.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rc.firstErr)
	}
	m := metricSet{}
	m.add("setup_s", median(run.setups), "s")
	m.add("ops_per_s", run.opsPerSec(t), "1/s")
	m.addLatency("write", t.write)
	m.addLatency("read", t.read)
	m.addLatency("flush", t.flush)
	ub := float64(t.userBytes)
	m.add("ssd_write_bytes_per_user_byte", ratio(float64(run.dev.ssdHostWrites*chunkSize), ub), "ratio")
	m.add("log_bytes_per_user_byte", ratio(float64(run.stats.LogBytes), ub), "ratio")
	m.add("gc_pages_moved_per_user_mib", ratio(float64(run.dev.ssdPagesMoved), ub/mib), "pages/MiB")
	m.add("virtual_kiops", rc.virtualKIOPS, "kIOPS")
	m.add("peak_rss_mib", run.rss, "MiB")
	fmt.Printf("ops %d in %v, failed_op_ratio %g (%d of %d), reconciliation %s\n",
		t.ops, run.window, ratio(float64(failed), float64(t.attempted)), failed, t.attempted, okText(rc.mismatches == 0))
	return &result{Correct: failed == 0, Attempted: t.attempted, Failed: failed, Metrics: m}, nil
}

// replayResult reports a trace-replay run's end-to-end metrics.
func replayResult(run *replayRun) *result {
	attempted := run.requests + run.readCalls + run.flushOps
	if run.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", run.firstErr)
	}
	m := metricSet{}
	m.add("setup_s", median(run.setups), "s")
	m.add("ops_per_s", median(run.opsPerSec), "1/s")
	m.addReplayLatency("write", run.write)
	m.addReplayLatency("read", run.read)
	m.addReplayLatency("flush", run.flush)
	ub := float64(run.userBytes)
	m.add("ssd_write_bytes_per_user_byte", ratio(float64(run.dev.ssdHostWrites*chunkSize), ub), "ratio")
	m.add("log_bytes_per_user_byte", ratio(float64(run.stats.LogBytes), ub), "ratio")
	m.add("gc_pages_moved_per_user_mib", ratio(float64(run.dev.ssdPagesMoved), ub/mib), "pages/MiB")
	m.add("virtual_kiops", float64(run.requests)/run.virtual/1000, "kIOPS")
	m.add("peak_rss_mib", run.rss, "MiB")
	fmt.Printf("replays %d, requests %d in %.3fs, gc ops %d, commits %d, failed_op_ratio %g (%d of %d), verify and read-back %s\n",
		run.replays, run.requests, run.wall, run.dev.ssdGCOps, run.stats.Commits,
		ratio(float64(run.mismatches), float64(attempted)), run.mismatches, attempted, okText(run.mismatches == 0))
	return &result{Correct: run.mismatches == 0, Attempted: attempted, Failed: run.mismatches, Metrics: m}
}

func okText(ok bool) string {
	if ok {
		return "OK"
	}
	return "FAILED"
}
