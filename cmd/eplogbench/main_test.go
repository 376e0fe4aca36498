package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestUnknownExperiment(t *testing.T) {
	if err := run("nope", 64, 1, outputs{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run("all", 0, 1, outputs{}); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestFastExperiments(t *testing.T) {
	// fig6 and table1 are cheap enough for a unit test; the trace-driven
	// experiments are covered by internal/experiments tests.
	if err := run("fig6", 512, 1, outputs{}); err != nil {
		t.Fatal(err)
	}
	if err := run("table1", 512, 1, outputs{}); err != nil {
		t.Fatal(err)
	}
}

func TestOneTraceExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven experiment")
	}
	if err := run("6", 512, 1, outputs{}); err != nil {
		t.Fatal(err)
	}
}

func TestScalingBenchReport(t *testing.T) {
	path := t.TempDir() + "/BENCH_scaling.json"
	// -scale 512 keeps the sweep to a few hundred requests per run.
	if err := runScalingBench(512, 4, 2, path, false); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep scalingReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if !rep.BytesIdentical {
		t.Error("report says byte counts diverged across shard counts")
	}
	if rep.NumCPU < 1 || rep.GOMAXPROCS < 1 {
		t.Errorf("environment metadata missing: %+v", rep)
	}
	if len(rep.Runs) < 5 { // shards {1,2,4,8} x workers {1,2} minus dups
		t.Fatalf("report has %d runs, want a full sweep", len(rep.Runs))
	}
	seen4 := false
	for _, r := range rep.Runs {
		if r.SSDWriteBytes != rep.Runs[0].SSDWriteBytes || r.LogWriteBytes != rep.Runs[0].LogWriteBytes {
			t.Errorf("row %+v: traffic differs from first row", r)
		}
		if r.Shards == 4 && r.Workers == 1 {
			seen4 = true
		}
	}
	if !seen4 {
		t.Error("sweep missing the shards=4 workers=1 headline configuration")
	}
}

// TestScalingOverwriteGuard drives the one provenance guard through both
// checked-in report formats (BENCH_scaling.json and BENCH_net.json).
func TestScalingOverwriteGuard(t *testing.T) {
	for _, tc := range []struct {
		name   string
		report func(numCPU int, model string) any
	}{
		{"scaling", func(n int, m string) any { return scalingReport{NumCPU: n, CPUModel: m} }},
		{"net", func(n int, m string) any { return netReport{NumCPU: n, CPUModel: m} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write := func(name string, rep any) string {
				t.Helper()
				path := dir + "/" + name
				b, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			}

			// A report from a bigger machine is protected...
			big := write("big.json", tc.report(1<<16, "many-core test host"))
			err := guardOverwrite(big, false)
			if err == nil {
				t.Fatal("guard allowed a 1-CPU run to overwrite a multi-core report")
			}
			if !strings.Contains(err.Error(), "-force") || !strings.Contains(err.Error(), "many-core test host") {
				t.Errorf("refusal does not mention -force and the existing host: %v", err)
			}
			// ...unless forced.
			if err := guardOverwrite(big, true); err != nil {
				t.Errorf("-force did not override the guard: %v", err)
			}

			// A report from an equal or smaller machine is fair game.
			small := write("small.json", tc.report(1, ""))
			if err := guardOverwrite(small, false); err != nil {
				t.Errorf("guard blocked overwriting an equal/smaller-host report: %v", err)
			}

			// Missing or unparseable files never block: no provenance to protect.
			if err := guardOverwrite(dir+"/absent.json", false); err != nil {
				t.Errorf("guard blocked a missing file: %v", err)
			}
			garbled := dir + "/garbled.json"
			if err := os.WriteFile(garbled, []byte("not json{"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := guardOverwrite(garbled, false); err != nil {
				t.Errorf("guard blocked an unparseable file: %v", err)
			}
		})
	}
}

func TestCSVExport(t *testing.T) {
	path := t.TempDir() + "/out.csv"
	if err := run("fig6", 512, 1, outputs{csvPath: path}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "experiment,workload,scheme,metric,value\n") {
		t.Error("CSV header missing")
	}
	if strings.Count(string(b), "\n") < 10 {
		t.Error("CSV has too few rows")
	}
}

func TestJSONExport(t *testing.T) {
	path := t.TempDir() + "/out.jsonl"
	if err := run("fig6", 512, 1, outputs{jsonPath: path}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 10 {
		t.Fatalf("JSON output has %d lines, want >= 10", len(lines))
	}
	var rec record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("first record does not parse: %v", err)
	}
	if rec.Experiment == "" || rec.Metric == "" {
		t.Errorf("record missing fields: %+v", rec)
	}
}

func TestObsOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven experiment")
	}
	dir := t.TempDir()
	out := outputs{
		metricsPath: dir + "/metrics.json",
		tracePath:   dir + "/trace.jsonl",
		promPath:    dir + "/metrics.prom",
	}
	if err := run("obs", 512, 1, out); err != nil {
		t.Fatal(err)
	}

	mb, err := os.ReadFile(out.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]int64          `json:"counters"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("metrics snapshot does not parse: %v", err)
	}
	if _, ok := snap.Histograms["core.write_latency"]; !ok {
		t.Error("metrics snapshot missing core.write_latency histogram")
	}
	if _, ok := snap.Histograms["dev.main0.write_latency"]; !ok {
		t.Error("metrics snapshot missing per-device write latency")
	}
	if _, ok := snap.Counters["ssd.0.gc_runs"]; !ok {
		t.Error("metrics snapshot missing SSD GC counter")
	}

	tb, err := os.ReadFile(out.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tb), `"kind":"parity-commit"`) {
		t.Error("trace dump has no parity-commit events")
	}

	pb, err := os.ReadFile(out.promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(pb), "# TYPE eplog_core_write_latency histogram") {
		t.Error("prometheus exposition missing write latency histogram")
	}
}
