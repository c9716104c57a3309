package sizing

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/sta"
	"repro/internal/techmap"
)

func lib() *library.Library { return library.Default035() }

// fanoutHeavy builds a weak driver with a large fanout — the classic
// sizing win.
func fanoutHeavy() *network.Network {
	n := network.New("fh")
	a, b := n.AddInput("a"), n.AddInput("b")
	d := n.AddGate("d", logic.Nand, a, b)
	for i := 0; i < 10; i++ {
		s := n.AddGate(n.FreshName("s"), logic.Inv, d)
		n.MarkOutput(s)
	}
	return n
}

func TestEvalResizeFindsObviousWin(t *testing.T) {
	n := fanoutHeavy()
	l := lib()
	tm := sta.Analyze(n, l, 0)
	d := n.FindGate("d")
	gain := EvalResize(tm, d, library.NumSizes-1, MinSlack)
	if gain <= 0 {
		t.Fatalf("upsizing an overloaded driver should gain, got %v", gain)
	}
	// Local evaluation must leave the gate unchanged.
	if d.SizeIdx != 0 {
		t.Fatal("EvalResize mutated the gate")
	}
}

func TestEvalResizeTracksFullSTA(t *testing.T) {
	// The local gain and the full-STA delay change must agree in sign for
	// a single resize on a small circuit.
	n := fanoutHeavy()
	l := lib()
	tm := sta.Analyze(n, l, 0)
	d := n.FindGate("d")
	gain := EvalResize(tm, d, library.NumSizes-1, MinSlack)
	before := tm.CriticalDelay
	d.SizeIdx = library.NumSizes - 1
	after := sta.Analyze(n, l, tm.Clock).CriticalDelay
	d.SizeIdx = 0
	if (gain > 0) != (after < before) {
		t.Fatalf("local gain %v disagrees with full STA %v -> %v", gain, before, after)
	}
}

func TestBestResize(t *testing.T) {
	n := fanoutHeavy()
	l := lib()
	tm := sta.Analyze(n, l, 0)
	d := n.FindGate("d")
	size, gain := BestResize(tm, d, MinSlack)
	if size == 0 || gain <= 0 {
		t.Fatalf("BestResize missed the win: size=%d gain=%v", size, gain)
	}
}

// TestBestResizeMatchesPerSizeEval checks that scoring the current-size
// baseline once per site changes nothing: on every gate of two placed
// benchmarks, under both objectives, BestResizeScratch returns the size
// and the exact gain bits that the maximum over per-size
// EvalResizeScratch calls selects.
func TestBestResizeMatchesPerSizeEval(t *testing.T) {
	l := lib()
	for _, name := range []string{"c432", "c3540"} {
		n, err := gen.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		place.Place(n, l, place.Options{Seed: 1, MovesPerCell: 5})
		SeedForLoad(n, l, 0)
		tm := sta.Analyze(n, l, 0)
		sc := sta.NewScratch()
		sites := 0
		for _, obj := range []Objective{MinSlack, SumSlack} {
			n.Gates(func(g *network.Gate) {
				wantSize, wantGain := g.SizeIdx, 0.0
				for s := 0; s < library.NumSizes; s++ {
					if s == g.SizeIdx {
						continue
					}
					if gain := EvalResizeScratch(tm, g, s, obj, sc); gain > wantGain+eps {
						wantSize, wantGain = s, gain
					}
				}
				size, gain := BestResizeScratch(tm, g, obj, sc)
				if size != wantSize || math.Float64bits(gain) != math.Float64bits(wantGain) {
					t.Fatalf("%s %v obj %d: BestResizeScratch = (%d, %v), per-size maximum (%d, %v)",
						name, g, obj, size, gain, wantSize, wantGain)
				}
				if gain > eps {
					sites++
				}
			})
		}
		if sites == 0 {
			t.Fatalf("%s: no gate had a positive resize gain; the test compared only zeros", name)
		}
	}
}

func TestOptimizeImprovesFanoutHeavy(t *testing.T) {
	n := fanoutHeavy()
	st := Optimize(context.Background(), n, lib(), Options{})
	if st.FinalDelay >= st.InitialDelay {
		t.Fatalf("GS failed: %v -> %v", st.InitialDelay, st.FinalDelay)
	}
	if st.Resizes == 0 {
		t.Fatal("no resizes recorded")
	}
}

func TestOptimizeOnPlacedBenchmark(t *testing.T) {
	n, err := gen.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	l := lib()
	place.Place(n, l, place.Options{Seed: 1, MovesPerCell: 10})
	locs := place.Snapshot(n)
	orig, _ := n.Clone()
	areaBefore := techmap.Area(n, l)

	st := Optimize(context.Background(), n, l, Options{MaxPasses: 4})
	if st.FinalDelay > st.InitialDelay+1e-9 {
		t.Fatalf("GS worsened delay: %v -> %v", st.InitialDelay, st.FinalDelay)
	}
	improvement := (st.InitialDelay - st.FinalDelay) / st.InitialDelay
	if improvement <= 0 {
		t.Fatalf("GS found nothing on a placed benchmark (%.2f%%)", improvement*100)
	}
	// Sizing must not touch structure, function, or placement.
	if ce, err := sim.EquivalentRandom(orig, n, 16, 3); err != nil || ce != nil {
		t.Fatalf("sizing changed function: %v %v", ce, err)
	}
	if name, same := place.SameLocations(locs, place.Snapshot(n)); !same {
		t.Fatalf("sizing moved cell %s", name)
	}
	_ = areaBefore // area may go up or down; tracked by the harness
}

func TestAllowedFilter(t *testing.T) {
	n := fanoutHeavy()
	d := n.FindGate("d")
	st := Optimize(context.Background(), n, lib(), Options{Allowed: func(g *network.Gate) bool { return g != d }})
	if d.SizeIdx != 0 {
		t.Fatal("filtered gate was resized")
	}
	_ = st
}

func TestScore(t *testing.T) {
	slacks := []float64{3, 1, 2}
	if got := Score(MinSlack, slacks, 10); got != 1 {
		t.Fatalf("min score %v", got)
	}
	if got := Score(SumSlack, slacks, 10); got != 6 {
		t.Fatalf("sum score %v", got)
	}
	// Clipping at clock.
	if got := Score(SumSlack, []float64{100}, 10); got != 10 {
		t.Fatalf("clipped score %v", got)
	}
	if got := Score(MinSlack, nil, 10); got != math.MaxFloat64 {
		t.Fatalf("empty min score %v", got)
	}
}

func TestOptimizeIsDeterministic(t *testing.T) {
	run := func() float64 {
		n, err := gen.Generate("c432")
		if err != nil {
			t.Fatal(err)
		}
		l := lib()
		place.Place(n, l, place.Options{Seed: 2, MovesPerCell: 5})
		return Optimize(context.Background(), n, l, Options{MaxPasses: 3}).FinalDelay
	}
	if run() != run() {
		t.Fatal("GS is not deterministic")
	}
}

func TestOptimizeUsesIncrementalTimer(t *testing.T) {
	n, err := gen.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	l := lib()
	place.Place(n, l, place.Options{Seed: 1, MovesPerCell: 10})
	st := Optimize(context.Background(), n, l, Options{MaxPasses: 4})
	if st.Timer.IncrementalUpdates == 0 {
		t.Fatalf("sizing never used the incremental timer: %+v", st.Timer)
	}
	if st.Timer.FullAnalyses > 1+st.Passes {
		t.Fatalf("too many full analyses: %d for %d passes (%+v)",
			st.Timer.FullAnalyses, st.Passes, st.Timer)
	}
}

// TestOptimizeWindowed: the standalone GS loop under a criticality
// window must still never regress delay, and the window filter must
// actually exclude off-critical gates while keeping the critical ones.
func TestOptimizeWindowed(t *testing.T) {
	mk := func() *network.Network {
		n := gen.FromProfile(gen.Profile{
			Name: "szwin", Seed: 9, NumPI: 20, TargetGates: 250,
			XorFrac: 0.1, NorFrac: 0.4, InvFrac: 0.12, Locality: 0.5, MaxFanin: 3,
		})
		place.Place(n, lib(), place.Options{Seed: 1, MovesPerCell: 6})
		SeedForLoad(n, lib(), 0)
		return n
	}

	full := Optimize(context.Background(), mk(), lib(), Options{MaxPasses: 3})
	win := Optimize(context.Background(), mk(), lib(), Options{MaxPasses: 3, Window: 0.02})
	if win.FinalDelay > win.InitialDelay+eps {
		t.Fatalf("windowed sizing regressed delay: %+v", win)
	}
	if win.FinalDelay > full.FinalDelay*1.02+eps {
		t.Fatalf("windowed sizing delay %.4f too far above full %.4f", win.FinalDelay, full.FinalDelay)
	}

	// The filter itself: the worst-slack gate always passes, and some
	// off-critical gate is excluded under a tight window.
	n := mk()
	tm := sta.Analyze(n, lib(), 0)
	allowAll := func(*network.Gate) bool { return true }
	filter := phaseFilter(tm, Options{Window: 0.01}, allowAll)
	worstIn, someOut := false, false
	worst := tm.WorstSlack()
	n.Gates(func(g *network.Gate) {
		if g.IsInput() {
			return
		}
		in := filter(g)
		if tm.Slack(g) <= worst+1e-9 && in {
			worstIn = true
		}
		if !in {
			someOut = true
		}
	})
	if !worstIn {
		t.Fatal("window filter excluded the worst-slack gate")
	}
	if !someOut {
		t.Fatal("window filter excluded nothing — dead predicate")
	}
	if got := phaseFilter(tm, Options{}, allowAll); got == nil {
		t.Fatal("nil filter")
	}
}

// TestOptimizeCancelled: a pre-cancelled context stops the sizing loop
// at the first phase boundary with the best (initial) sizing restored.
func TestOptimizeCancelled(t *testing.T) {
	n, l := fanoutHeavy(), lib()
	before := map[string]int{}
	n.Gates(func(g *network.Gate) { before[g.Name()] = g.SizeIdx })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := Optimize(ctx, n, l, Options{MaxPasses: 4})
	if !st.Interrupted || st.Passes != 0 || st.Resizes != 0 {
		t.Fatalf("cancelled run must commit nothing: %+v", st)
	}
	n.Gates(func(g *network.Gate) {
		if before[g.Name()] != g.SizeIdx {
			t.Fatalf("gate %s resized by cancelled run", g.Name())
		}
	})
}
