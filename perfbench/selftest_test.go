package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/rapids"
	"repro/rapids/server"
)

// TestQuickRunsEmitEveryMetric runs every workload on tiny inputs,
// untraced and traced, and checks that the run is correct and emits
// exactly the declared metrics with their units.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	for _, w := range []string{"flow", "eco", "service"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, seconds: 0.5, trace: trace, quick: true, work: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric
// tables of this program in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", w.Name)
		}
	}
}

// TestChecksRejectWrongOutputs feeds each correctness check a
// deliberately wrong input.
func TestChecksRejectWrongOutputs(t *testing.T) {
	c, err := rapids.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	c.Place()
	before := c.Locations()
	res, err := c.Optimize(context.Background(), rapids.WithWorkers(1))
	if err := checkVerified(res, err); err != nil {
		t.Fatalf("a verified run fails the check: %v", err)
	}
	if err := checkLocations(before, c.Locations()); err != nil {
		t.Fatalf("an untouched placement fails the check: %v", err)
	}

	failed := *res
	failed.Verification = rapids.VerifyFailed
	if checkVerified(&failed, nil) == nil {
		t.Error("checkVerified accepts a failed verification")
	}
	if checkVerified(res, os.ErrInvalid) == nil {
		t.Error("checkVerified accepts an Optimize error")
	}

	q := qorOf(res)
	tampered := q
	tampered.FinalDelayNS += 1e-12
	if checkSameQoR(q, q) != nil || checkSameQoR(q, tampered) == nil {
		t.Error("checkSameQoR does not tell equal from different QoR")
	}

	moved := map[string][2]float64{}
	for name, at := range before {
		moved[name] = at
	}
	for name, at := range before {
		moved[name] = [2]float64{at[0] + 1, at[1]}
		break
	}
	if checkLocations(before, moved) == nil {
		t.Error("checkLocations accepts a moved cell")
	}

	if checkParity(1.5, 1.5) != nil || checkParity(1.5, 1.5+1e-6) == nil {
		t.Error("checkParity does not catch a session parity mismatch")
	}

	cold := []byte(`{"FinalDelayNS":6.1}`)
	if checkRepeat(cold, cold) != nil || checkRepeat(cold, []byte(`{"FinalDelayNS":6.2}`)) == nil {
		t.Error("checkRepeat accepts a tampered repeat result")
	}

	delta := &harness.MetricsDelta{
		Before: map[string]float64{},
		After: map[string]float64{
			`rapidsd_submissions_total{outcome="accepted"}`: 1,
			`rapidsd_jobs_completed_total{state="done"}`:    1,
		},
	}
	rows := []harness.BatchRow{{JobID: "j1", State: server.StateDone}}
	if err := delta.Reconcile(rows); err != nil {
		t.Fatalf("a matching scrape does not reconcile: %v", err)
	}
	if delta.Reconcile(append(rows, harness.BatchRow{JobID: "j2", State: server.StateDone})) == nil {
		t.Error("Reconcile accepts a job the server did not count")
	}
}

// TestFailedCheckFailsTheRun: a failed check reaches the result line.
func TestFailedCheckFailsTheRun(t *testing.T) {
	o := newOutcome()
	o.check(true, "fine")
	o.check(false, "deliberately wrong")
	for _, d := range endToEnd {
		o.m[d.name] = 1
	}
	res, err := assemble(config{}, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("result %+v, want correct=false attempted=2 failed=1", res)
	}
	if !strings.Contains(strings.Join(o.problems, ";"), "deliberately wrong") {
		t.Errorf("problems %v do not name the failed check", o.problems)
	}
}

// TestCalibrationScalesTimes: the run's host speed is the median of the
// samples of its measured section, and a slower host gives a lower
// speed.
func TestCalibrationScalesTimes(t *testing.T) {
	c := newCalibrator()
	start := time.Now()
	c.samples = []calSample{
		{at: start.Add(-time.Second), speed: 9}, // a set-up sample
		{at: start.Add(time.Second), speed: 0.5, took: time.Millisecond, alloc: 10},
		{at: start.Add(2 * time.Second), speed: 0.7, took: time.Millisecond, alloc: 10},
		{at: start.Add(3 * time.Second), speed: 0.6, took: time.Millisecond, alloc: 10},
	}
	if s := c.since(start); s.speed != 0.6 || s.took != 3*time.Millisecond || s.alloc != 30 {
		t.Errorf("since = %+v, want speed 0.6, took 3ms, alloc 30", s)
	}

	c.samples = nil
	c.sample()
	calm := c.samples[0].speed
	stop := make(chan struct{})
	defer close(stop)
	for i := 0; i < 4; i++ { // four spinning goroutines on two processors
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	var busy []float64
	for i := 0; i < 5; i++ {
		c.sample()
		busy = append(busy, c.samples[len(c.samples)-1].speed)
	}
	if b := quantile(busy, 0.5); !(b < calm) {
		t.Errorf("speed %.3f beside four spinning goroutines, %.3f without: want lower", b, calm)
	}
}

// TestHeapWatchSeesCollections: the live heap is read once per
// collection cycle, and not while a calibration sample runs.
func TestHeapWatchSeesCollections(t *testing.T) {
	w := watchHeap()
	keep := make([]byte, 8<<20)
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.Gosched()
	}
	time.Sleep(50 * time.Millisecond) // the finalizer goroutine runs
	live, cycles := w.stop()
	if cycles < 1 || live < 8 {
		t.Errorf("live heap %.1f MB over %d cycles, want at least 8 MB over 1 or more", live, cycles)
	}
	runtime.KeepAlive(keep)
}
