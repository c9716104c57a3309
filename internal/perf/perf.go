// Package perf is the scaling-curve benchmark harness: it runs full
// optimizer flows over a workers × regions × window × circuit grid (an
// arm with regions > 1 runs the restart rounds rapids.WithRegions
// selects) and
// records, per arm, the wall clock, process CPU time, allocation volume,
// candidate-evaluation counts, and final quality, together with the host
// facts needed to interpret them (CPU model, core count, GOMAXPROCS).
// `make bench-scaling` drives it through cmd/benchscale and writes
// BENCH_PR6.json.
//
// # Methodology
//
// Scaling claims die by measurement noise, and this harness is built for
// hosts it cannot control (shared CI runners, 1-CPU containers with noisy
// neighbors). Three defenses:
//
//   - Arms are interleaved, not run back to back: rep k of every arm runs
//     before rep k+1 of any arm, so a load burst inflates all arms of a
//     rep about equally instead of poisoning whole arms.
//   - Per arm, the minimum over reps is reported alongside the median.
//     Exogenous load only ever adds time, so the min is the best estimate
//     of the uncontended cost; the median shows how noisy the window was.
//   - Process CPU time (getrusage) is recorded next to wall clock. Time
//     stolen by other tenants never enters CPU time, so on a 1-CPU host
//     the CPU-time ratio between arms is the robust scaling statistic.
//
// The runner also cross-checks determinism for free: arms that differ
// only in Workers must produce bit-identical final delays (scoring
// parallelism moves CPU time around, never results), and every rep of an
// arm must reproduce the same final delay. A violation fails the run.
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/opt"
	"repro/internal/place"
	"repro/internal/sizing"
)

// Arm is one grid point.
type Arm struct {
	Circuit string  `json:"circuit"`
	Workers int     `json:"workers"`
	Regions int     `json:"regions"`
	Window  float64 `json:"window"`
}

func (a Arm) String() string {
	return fmt.Sprintf("%s_w%d_r%d_win%g", a.Circuit, a.Workers, a.Regions, a.Window)
}

// ArmResult is the measurement of one arm across all reps.
type ArmResult struct {
	Arm
	Reps int `json:"reps"`

	// WallMinMS is the fastest rep — the best estimate of the
	// uncontended cost on a noisy host. WallMedianMS shows the noise.
	WallMinMS    float64 `json:"wall_min_ms"`
	WallMedianMS float64 `json:"wall_median_ms"`
	// CPUMinMS is the fastest rep by process CPU time (0 when the
	// platform has no getrusage).
	CPUMinMS float64 `json:"cpu_min_ms"`
	// AllocMB and Allocs are the heap volume and object count of the
	// cheapest rep (allocation is deterministic up to pool reuse; the
	// min is the steady-state cost).
	AllocMB float64 `json:"alloc_mb"`
	Allocs  uint64  `json:"allocs"`

	FinalDelayNS  float64 `json:"final_delay_ns"`
	ImprovePct    float64 `json:"improve_pct"`
	EvalsPerPhase float64 `json:"evals_per_phase"`
	Phases        int     `json:"phases"`
	Swaps         int     `json:"swaps"`
	Resizes       int     `json:"resizes"`
	Rounds        int     `json:"rounds"`
}

// Host records the facts needed to interpret the numbers.
type Host struct {
	CPU string `json:"cpu"`
	// CPUsAvailable is runtime.NumCPU — on a 1-CPU host the workers > 1
	// arms measure pool overhead, not parallel speedup, and the report
	// says so honestly instead of hiding the curve.
	CPUsAvailable int    `json:"cpus_available"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	OS            string `json:"os"`
	Arch          string `json:"arch"`
}

// Report is the BENCH_PR6.json document.
type Report struct {
	PR          int         `json:"pr"`
	Title       string      `json:"title"`
	GeneratedAt string      `json:"generated_at"`
	Host        Host        `json:"host"`
	Method      string      `json:"method"`
	MaxIters    int         `json:"max_iters"`
	Results     []ArmResult `json:"results"`
	// Ratios reports, per circuit/window pair, the CPU-time ratio of
	// every other arm against its regions=1 workers=1 baseline —
	// the scaling curve the harness exists to measure.
	Ratios map[string]float64 `json:"cpu_ratio_vs_sequential"`
	// DeterminismChecked records that all reps of every arm, and all
	// worker counts of every (circuit, regions, window) group, produced
	// bit-identical final delays.
	DeterminismChecked bool `json:"determinism_checked"`
}

// GridConfig configures RunGrid.
type GridConfig struct {
	Circuits []string
	Workers  []int
	Regions  []int
	Windows  []float64
	// Reps per arm (default 4). Arms are interleaved across reps.
	Reps int
	// MaxIters bounds each optimizer run (default 4).
	MaxIters int
	// ProfileDir, when set, writes cpu_<arm>.prof and mem_<arm>.prof
	// for the last rep of every arm.
	ProfileDir string
	// Log, when non-nil, receives one line per finished rep.
	Log func(string)
}

func (c *GridConfig) fill() {
	if len(c.Circuits) == 0 {
		c.Circuits = []string{"s38417"}
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1}
	}
	if len(c.Regions) == 0 {
		c.Regions = []int{1, 8}
	}
	if len(c.Windows) == 0 {
		c.Windows = []float64{0}
	}
	if c.Reps <= 0 {
		c.Reps = 4
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 4
	}
}

// armState accumulates one arm's reps.
type armState struct {
	arm    Arm
	base   *network.Network
	wallNS []float64
	cpuNS  []float64
	bytes  []uint64
	counts []uint64
	res    opt.Result
	first  bool
}

// RunGrid measures the full grid and assembles the report.
func RunGrid(cfg GridConfig) (*Report, error) {
	cfg.fill()
	lib := library.Default035()

	// One placed, size-seeded base network per circuit; every arm rep
	// clones it so all arms of a circuit optimize the identical start.
	bases := map[string]*network.Network{}
	for _, name := range cfg.Circuits {
		n, err := gen.Generate(name)
		if err != nil {
			return nil, fmt.Errorf("perf: %w", err)
		}
		place.Place(n, lib, place.Options{Seed: 1, MovesPerCell: 5})
		sizing.SeedForLoad(n, lib, 0)
		bases[name] = n
	}

	var arms []*armState
	for _, ckt := range cfg.Circuits {
		for _, win := range cfg.Windows {
			for _, reg := range cfg.Regions {
				for _, w := range cfg.Workers {
					arms = append(arms, &armState{
						arm:   Arm{Circuit: ckt, Workers: w, Regions: reg, Window: win},
						base:  bases[ckt],
						first: true,
					})
				}
			}
		}
	}

	for rep := 0; rep < cfg.Reps; rep++ {
		for _, st := range arms {
			profile := cfg.ProfileDir != "" && rep == cfg.Reps-1
			if err := runRep(st, lib, cfg, profile); err != nil {
				return nil, err
			}
			if cfg.Log != nil {
				k := len(st.wallNS) - 1
				cfg.Log(fmt.Sprintf("rep %d %-22s wall %7.1fms cpu %7.1fms delay %.4f",
					rep, st.arm, st.wallNS[k]/1e6, st.cpuNS[k]/1e6, st.res.FinalDelay))
			}
		}
	}

	rep := &Report{
		PR:          6,
		Title:       "Scaling-curve harness: workers x regions x window x circuit",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        HostFacts(),
		Method: "arms interleaved across reps; min over reps reported (exogenous load only adds time); " +
			"process CPU time recorded beside wall clock — on shared hosts the CPU-time ratio is the robust statistic",
		MaxIters: cfg.MaxIters,
		Ratios:   map[string]float64{},
	}
	for _, st := range arms {
		rep.Results = append(rep.Results, st.result())
	}

	if err := checkDeterminism(arms); err != nil {
		return nil, err
	}
	rep.DeterminismChecked = true

	// Scaling ratios: every arm against the workers=1, regions=1 arm of
	// its (circuit, window) pair, when that baseline is in the grid.
	for _, st := range arms {
		if st.arm.Workers == 1 && st.arm.Regions == 1 {
			continue
		}
		for _, b := range arms {
			if b.arm.Workers == 1 && b.arm.Regions == 1 &&
				b.arm.Circuit == st.arm.Circuit && b.arm.Window == st.arm.Window {
				num, den := minOf(st.cpuNS), minOf(b.cpuNS)
				if den <= 0 || num <= 0 { // no getrusage: fall back to wall
					num, den = minOf(st.wallNS), minOf(b.wallNS)
				}
				rep.Ratios[st.arm.String()] = round3(num / den)
			}
		}
	}
	return rep, nil
}

// runRep clones, runs, and records one rep of one arm.
func runRep(st *armState, lib *library.Library, cfg GridConfig, profile bool) error {
	n, _ := st.base.Clone()
	o := opt.Options{MaxIters: cfg.MaxIters, Workers: st.arm.Workers, Window: st.arm.Window}
	if st.arm.Regions > 1 {
		o.Rounds = opt.DefaultRounds
	}

	var cpuProf *os.File
	if profile {
		if err := os.MkdirAll(cfg.ProfileDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(cfg.ProfileDir, "cpu_"+st.arm.String()+".prof"))
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuProf = f
	}

	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	wall0, cpu0 := time.Now(), processCPUTime()
	res := opt.Optimize(context.Background(), n, lib, opt.GsgGS, o)
	wall, cpu := time.Since(wall0), processCPUTime()-cpu0
	runtime.ReadMemStats(&msAfter)

	if profile {
		pprof.StopCPUProfile()
		cpuProf.Close()
		memProf, err := os.Create(filepath.Join(cfg.ProfileDir, "mem_"+st.arm.String()+".prof"))
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(memProf); err != nil {
			memProf.Close()
			return err
		}
		memProf.Close()
	}

	if !st.first && res.FinalDelay != st.res.FinalDelay {
		return fmt.Errorf("perf: arm %s is nondeterministic across reps: final delay %.6f then %.6f",
			st.arm, st.res.FinalDelay, res.FinalDelay)
	}
	st.first = false
	st.res = res
	st.wallNS = append(st.wallNS, float64(wall.Nanoseconds()))
	st.cpuNS = append(st.cpuNS, float64(cpu.Nanoseconds()))
	st.bytes = append(st.bytes, msAfter.TotalAlloc-msBefore.TotalAlloc)
	st.counts = append(st.counts, msAfter.Mallocs-msBefore.Mallocs)
	return nil
}

func (st *armState) result() ArmResult {
	r := ArmResult{
		Arm:          st.arm,
		Reps:         len(st.wallNS),
		WallMinMS:    round3(minOf(st.wallNS) / 1e6),
		WallMedianMS: round3(medianOf(st.wallNS) / 1e6),
		CPUMinMS:     round3(minOf(st.cpuNS) / 1e6),
		FinalDelayNS: round4(st.res.FinalDelay),
		Phases:       st.res.Evals.Phases,
		Swaps:        st.res.Swaps,
		Resizes:      st.res.Resizes,
		Rounds:       st.res.Iterations,
	}
	r.EvalsPerPhase = round3(st.res.Evals.PerPhase())
	if st.res.InitialDelay > 0 {
		r.ImprovePct = round3(100 * (st.res.InitialDelay - st.res.FinalDelay) / st.res.InitialDelay)
	}
	var minB, minC uint64 = ^uint64(0), ^uint64(0)
	for i := range st.bytes {
		if st.bytes[i] < minB {
			minB = st.bytes[i]
		}
		if st.counts[i] < minC {
			minC = st.counts[i]
		}
	}
	r.AllocMB = round3(float64(minB) / (1 << 20))
	r.Allocs = minC
	return r
}

// checkDeterminism verifies that worker count never changes results: all
// arms of one (circuit, regions, window) group must agree exactly.
func checkDeterminism(arms []*armState) error {
	groups := map[string]*armState{}
	for _, st := range arms {
		key := fmt.Sprintf("%s_r%d_win%g", st.arm.Circuit, st.arm.Regions, st.arm.Window)
		if prev, ok := groups[key]; ok {
			if prev.res.FinalDelay != st.res.FinalDelay {
				return fmt.Errorf("perf: workers changed the result for %s: %d workers -> %.6f, %d workers -> %.6f",
					key, prev.arm.Workers, prev.res.FinalDelay, st.arm.Workers, st.res.FinalDelay)
			}
		} else {
			groups[key] = st
		}
	}
	return nil
}

// HostFacts collects the machine description for the report.
func HostFacts() Host {
	return Host{
		CPU:           cpuModel(),
		CPUsAvailable: runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		OS:            runtime.GOOS,
		Arch:          runtime.GOARCH,
	}
}

// cpuModel reads the CPU model string from /proc/cpuinfo, or returns
// "unknown" off Linux.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok &&
			strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }
func round4(x float64) float64 { return float64(int64(x*10000+0.5)) / 10000 }
