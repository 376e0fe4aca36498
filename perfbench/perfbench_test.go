package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/eplog/eplog/internal/workload"
)

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkMetrics fails unless res is correct and holds exactly the named
// metrics, each with its unit.
func checkMetrics(t *testing.T, label string, res *result, names, units []string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", label, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(names) {
		t.Errorf("%s: %d metrics, want %d", label, len(res.Metrics), len(names))
	}
	for i, name := range names {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, name)
		} else if m.Unit != units[i] {
			t.Errorf("%s: metric %s has unit %q, want %q", label, name, m.Unit, units[i])
		}
	}
}

// TestSmoke does a tiny run of every workload, untraced and traced, and
// checks that every metric BENCHMARK.json names is emitted with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	c := loadContract(t)
	var e2eNames, e2eUnits, layerNames, layerUnits []string
	for _, m := range c.EndToEnd {
		e2eNames, e2eUnits = append(e2eNames, m.Name), append(e2eUnits, m.Unit)
	}
	for _, m := range c.PerLayer {
		layerNames, layerUnits = append(layerNames, m.Name), append(layerUnits, m.Unit)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i])
		}
		res, err := endToEnd(w.Name, 1, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkMetrics(t, w.Name, res, e2eNames, e2eUnits)
		res, err = perLayer(w.Name, 1, 2*time.Second, t.TempDir())
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		checkMetrics(t, w.Name+" traced", res, layerNames, layerUnits)
	}
}

// TestReconcileCatchesCorruptChecksum checks that the serial replay flags
// a read whose live checksum was corrupted, and passes the untouched log.
func TestReconcileCatchesCorruptChecksum(t *testing.T) {
	run, err := runNet(netUpdate, 7, 300*time.Millisecond, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := reconcile(run.conns)
	if err != nil {
		t.Fatal(err)
	}
	if rc.mismatches != 0 {
		t.Fatalf("clean log: %d mismatches: %v", rc.mismatches, rc.firstErr)
	}
	c := run.conns[0]
	corrupted := false
	for i := c.pre; i < len(c.log.Ops); i++ {
		if c.log.Ops[i].Kind == workload.Read {
			c.log.Ops[i].Sum ^= 1
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("the run issued no reads")
	}
	rc, err = reconcile(run.conns)
	if err != nil {
		t.Fatal(err)
	}
	if rc.mismatches != 1 || rc.firstErr == nil {
		t.Fatalf("corrupted checksum: %d mismatches (%v), want 1", rc.mismatches, rc.firstErr)
	}
}
