// Command perfbench is the repository benchmark: it drives one workload
// through the public entry points of each layer (the rapids facade, the
// exported functions of internal/*, and an in-process rapids/server over
// loopback HTTP), checks every output, and prints one JSON result line.
//
// Usage:
//
//	perfbench --workload flow|eco|service --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured from spans the
// benchmark records around each layer call (written as JSON lines under
// --work). README.md in this directory defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/perf"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them on an untraced run. The times among them are at
// the reference host's speed (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"op_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer are the metrics of a traced run. A workload that leaves a
// layer idle reports it as 0.
var perLayer = []metricDef{
	{"error_frac", "ratio"},
	{"host.speed", "ratio"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"flow_wall_s", "s"},
	{"delay_gain_pct", "%"},
	{"area_delta_pct", "%"},
	{"apply_p50_ms", "ms"},
	{"apply_p99_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"reopt_p50_ms", "ms"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"edit_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"blif.load_s", "s"},
	{"place.place_s", "s"},
	{"place.hpwl_ratio", "ratio"},
	{"opt.seed_s", "s"},
	{"opt.min_slack_s", "s"},
	{"opt.sum_slack_s", "s"},
	{"opt.round_s", "s"},
	{"opt.final_s", "s"},
	{"opt.phases", "count"},
	{"opt.candidates", "count"},
	{"opt.moves", "count"},
	{"opt.committed", "count"},
	{"opt.accept_ratio", "ratio"},
	{"opt.candidates_per_s", "1/s"},
	{"sta.report_s", "s"},
	{"sta.incremental_updates", "count"},
	{"sta.avg_dirty", "count"},
	{"sta.max_dirty", "count"},
	{"sta.arrival_recomputes", "count"},
	{"sta.required_recomputes", "count"},
	{"supergate.full_extractions", "count"},
	{"supergate.flushes", "count"},
	{"supergate.reextracted", "count"},
	{"sim.verify_s", "s"},
	{"session.begin_s", "s"},
	{"session.apply_s", "s"},
	{"session.retime_s", "s"},
	{"session.delta_s", "s"},
	{"session.touched_gates", "count"},
	{"session.full_fallbacks", "count"},
	{"session.changed_slacks", "count"},
	{"session.view_s", "s"},
	{"session.views", "count"},
	{"session.commit_s", "s"},
	{"server.submit_s", "s"},
	{"server.queue_wait_s", "s"},
	{"server.run_s", "s"},
	{"server.other_s", "s"},
	{"server.hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"server.edit_apply_s", "s"},
	{"journal.append_s", "s"},
	{"journal.appends", "count"},
	{"store.put_s", "s"},
	{"store.puts", "count"},
	{"store.get_s", "s"},
	{"store.gets", "count"},
	{"gc.pause_s", "s"},
	{"alloc_mb", "MB"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage_pct", "%"},
	{"self.bench_s", "s"},
	{"self.blif_s", "s"},
	{"self.place_s", "s"},
	{"self.sta_s", "s"},
	{"self.opt_s", "s"},
	{"self.sim_s", "s"},
	{"self.session_s", "s"},
	{"self.http_s", "s"},
	{"self.server_s", "s"},
	{"self.journal_s", "s"},
	{"self.store_s", "s"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick shrinks every input to the smallest circuits. Only the
	// self-test sets it; the command line cannot.
	quick bool
	// work is the directory the run may write to: span dumps and the
	// service's journal and store live under it.
	work string
}

// outcome is what a workload run measured. attempted and failed count
// workload operations; a failed correctness check fails its operation.
type outcome struct {
	attempted, failed int
	problems          []string
	m                 map[string]float64
	cal               *calibrator
}

func newOutcome() *outcome { return &outcome{m: map[string]float64{}, cal: newCalibrator()} }

// check counts one operation, failing it with msg when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(config, *recorder) (*outcome, error){
	"flow":    runFlow,
	"eco":     runEco,
	"service": runService,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: flow, eco or service")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured section in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "directory for spans, journal and store")
	flag.Parse()
	cfg.trace = trace == 1

	host, _ := json.Marshal(perf.HostFacts())
	fmt.Fprintf(os.Stderr, "perfbench: host %s\n", host)
	res, err := run(cfg)
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

// run executes one workload and assembles the result line.
func run(cfg config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want flow, eco or service)", cfg.workload)
	}
	// The benchmark measures the program on two processors whatever the
	// host offers, as the load it generates is sized for two.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	var rec *recorder
	if cfg.trace {
		rec = &recorder{}
	}
	o, err := fn(cfg, rec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if o.m["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	var speeds []float64
	for _, s := range o.cal.samples {
		speeds = append(speeds, s.speed)
	}
	fmt.Fprintf(os.Stderr, "perfbench: host speed %.3f of the reference; %d samples, quartiles %.3f %.3f %.3f\n",
		o.m["host.speed"], len(speeds), quantile(speeds, 0.25), quantile(speeds, 0.5), quantile(speeds, 0.75))
	if o.attempted > 0 {
		o.m["error_frac"] = float64(o.failed) / float64(o.attempted)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if rec != nil {
		path := filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := rec.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return assemble(cfg, o)
}

// assemble selects the metrics of the run's kind, with their units.
func assemble(cfg config, o *outcome) (*result, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := o.m[d.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// runtimeStats is a reading of the process's CPU time, the Go runtime's
// cumulative GC pause time and heap allocation (through
// runtime/metrics), and the host's CPU ticks; at the start of a timed
// section, with the live heap watched from then on.
type runtimeStats struct {
	cpu          time.Duration
	pause        time.Duration
	alloc        uint64
	steal, ticks uint64
	heap         *heapWatch
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var rs runtimeStats
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		var sum float64
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			mid := lo
			if !math.IsInf(hi, 1) {
				mid = (lo + hi) / 2
			}
			sum += float64(c) * mid
		}
		rs.pause = time.Duration(sum * float64(time.Second))
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		rs.alloc = s[1].Value.Uint64()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rs.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	rs.steal, rs.ticks = hostTicks()
	return rs
}

// startTimed reads the runtime at the start of a timed section and
// starts watching the live heap.
func startTimed() runtimeStats {
	rs := readRuntime()
	rs.heap = watchHeap()
	return rs
}

// hostTicks reads the host's stolen and total CPU ticks from the first
// line of /proc/stat ("cpu user nice system idle iowait irq softirq
// steal ..."); zeros where it is missing.
func hostTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// emitTimed stores the figures of a timed section that began at start,
// ran for elapsed and completed ops operations: the host speed the
// calibration samples saw, operations per second at the reference
// speed, the median live heap over the garbage collection cycles, and
// process CPU time, GC pause time and allocation per operation. The
// samples run between the operations, so their time, CPU time and
// allocation are taken out. It reports on standard error the share of
// host CPU time the hypervisor stole meanwhile.
func (o *outcome) emitTimed(before runtimeStats, start time.Time, elapsed time.Duration, ops int) (speed float64) {
	heap, cycles := before.heap.stop()
	if ops <= 0 {
		return 1
	}
	after := readRuntime()
	cs := o.cal.since(start)
	elapsed -= cs.took
	cpu := after.cpu - before.cpu - cs.took
	o.m["host.speed"] = cs.speed
	o.m["heap_live_mb"] = heap
	o.m["ops_per_s"] = float64(ops) / elapsed.Seconds() / cs.speed
	o.m["cpu_ms_per_op"] = ms(cpu) / float64(ops)
	o.m["gc.pause_s"] = (after.pause - before.pause).Seconds() / float64(ops)
	o.m["alloc_mb"] = float64(after.alloc-before.alloc-cs.alloc) / (1 << 20) / float64(ops)
	if dt := after.ticks - before.ticks; dt > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: host steal %.1f%% of CPU time during the run, %d GC cycles\n",
			100*float64(after.steal-before.steal)/float64(dt), cycles)
	}
	return cs.speed
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// medianSetup runs setup n times and returns the median duration, at
// the reference speed, and the last setup's value; earlier values are
// released with drop. Each set-up follows a calibration sample, which
// starts with a garbage collection, so one set-up's garbage does not
// slow the next.
func medianSetup[T any](n int, cal *calibrator, setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var times []float64
	first := time.Now()
	for i := 0; i < n; i++ {
		if i > 0 && drop != nil {
			drop(last)
		}
		cal.sample()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	cal.sample()
	return last, quantile(times, 0.5) * cal.since(first).speed, nil
}

// setupRepeats is how many times a run sets up, for a steady setup_s.
// The short set-ups of flow and service repeat more often than eco's.
func setupRepeats(cfg config) int {
	switch {
	case cfg.quick:
		return 1
	case cfg.workload == "eco":
		return 5
	}
	return 11
}
