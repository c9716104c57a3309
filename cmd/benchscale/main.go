// Command benchscale runs the scaling-curve benchmark harness
// (internal/perf): full optimizer flows over a workers × regions ×
// window × circuit grid, interleaved reps, wall + process-CPU time,
// allocation counts, and final quality per arm, written as one JSON
// report with the host facts needed to interpret it. `make
// bench-scaling` runs the default grid into BENCH_PR6.json.
//
// Usage:
//
//	benchscale [-out BENCH_PR6.json] [-reps 4] [-iters 4]
//	           [-circuits s13207,s38417] [-workers 1,2,4]
//	           [-regions 1,8] [-windows 0,0.005]
//	           [-profiles DIR] [-quick]
//
// -quick shrinks the grid to a seconds-long smoke arm (one small
// circuit, one rep) — the CI job uses it to prove the harness runs and
// the report is well-formed without burning minutes of runner time.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/perf"
)

func main() {
	var (
		out      = flag.String("out", "BENCH_PR6.json", "report output path")
		reps     = flag.Int("reps", 4, "interleaved reps per arm (min over reps is reported)")
		iters    = flag.Int("iters", 4, "optimizer MaxIters per run")
		circuits = flag.String("circuits", "s13207,s38417", "comma-separated benchmark circuits")
		workers  = flag.String("workers", "1,2,4", "comma-separated scoring-worker counts")
		regions  = flag.String("regions", "1,8", "comma-separated -regions values (1 = one optimizer run, >1 = restart rounds)")
		windows  = flag.String("windows", "0,0.005", "comma-separated criticality windows (0 = default margins)")
		profiles = flag.String("profiles", "", "directory for per-arm cpu_*.prof and mem_*.prof (empty = off)")
		quick    = flag.Bool("quick", false, "seconds-long smoke grid: alu2, workers 1, regions 1+4, 1 rep")
		quiet    = flag.Bool("q", false, "suppress per-rep progress lines")
	)
	flag.Parse()

	cfg := perf.GridConfig{
		Circuits:   splitList(*circuits),
		Workers:    splitInts(*workers),
		Windows:    splitFloats(*windows),
		Regions:    splitInts(*regions),
		Reps:       *reps,
		MaxIters:   *iters,
		ProfileDir: *profiles,
	}
	if *quick {
		cfg.Circuits = []string{"alu2"}
		cfg.Workers = []int{1}
		cfg.Regions = []int{1, 4}
		cfg.Windows = []float64{0}
		cfg.Reps = 1
	}
	if !*quiet {
		cfg.Log = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	report, err := perf.RunGrid(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchscale: %v\n", err)
		os.Exit(1)
	}
	if err := report.WriteJSON(*out); err != nil {
		fmt.Fprintf(os.Stderr, "benchscale: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchscale: %d arms x %d reps -> %s (host: %s, %d CPU)\n",
		len(report.Results), cfg.Reps, *out, report.Host.CPU, report.Host.CPUsAvailable)
	arms := make([]string, 0, len(report.Ratios))
	for arm := range report.Ratios {
		arms = append(arms, arm)
	}
	sort.Strings(arms)
	for _, arm := range arms {
		fmt.Printf("  cpu ratio vs sequential: %-24s %.3f\n", arm, report.Ratios[arm])
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func splitInts(s string) []int {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchscale: bad int %q\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func splitFloats(s string) []float64 {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchscale: bad float %q\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
