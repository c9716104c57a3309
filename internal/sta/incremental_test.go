package sta_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/place"
	"repro/internal/rewire"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/supergate"
)

const tol = 1e-9

// requireMatch asserts that the incremental view agrees with a fresh
// ground-truth Analyze on arrivals, required times, and critical delay.
func requireMatch(t *testing.T, step string, n *network.Network, lib *library.Library, clock float64, got *sta.Timing) {
	t.Helper()
	want := sta.Analyze(n, lib, clock)
	if d := math.Abs(want.CriticalDelay - got.CriticalDelay); d > tol {
		t.Fatalf("%s: critical delay diverged by %g (incremental %v, full %v)",
			step, d, got.CriticalDelay, want.CriticalDelay)
	}
	n.Gates(func(g *network.Gate) {
		ga, wa := got.Arrival(g), want.Arrival(g)
		if math.Abs(ga.Rise-wa.Rise) > tol || math.Abs(ga.Fall-wa.Fall) > tol {
			t.Fatalf("%s: arrival of %v diverged: incremental %+v, full %+v", step, g, ga, wa)
		}
		gr, wr := got.Required(g), want.Required(g)
		if !edgeClose(gr, wr) {
			t.Fatalf("%s: required of %v diverged: incremental %+v, full %+v", step, g, gr, wr)
		}
		if math.Abs(got.Load(g)-want.Load(g)) > tol {
			t.Fatalf("%s: load of %v diverged: incremental %v, full %v", step, g, got.Load(g), want.Load(g))
		}
	})
}

// edgeClose compares required-time edges, treating the +inf sentinel (a
// gate that reaches no primary output) as equal to itself.
func edgeClose(a, b sta.Edge) bool {
	close := func(x, y float64) bool {
		if x == y { // covers the +inf == +inf case exactly
			return true
		}
		return math.Abs(x-y) <= tol
	}
	return close(a.Rise, b.Rise) && close(a.Fall, b.Fall)
}

// mutator applies one randomized, functionality-preserving (or at least
// structurally legal) mutation through the network's event layer.
type mutator struct {
	rng *rand.Rand
	n   *network.Network
}

// randomSwap applies one random legal supergate swap and returns its undo,
// or nil if the extraction offers none.
func (m *mutator) randomSwap() rewire.Undo {
	ext := supergate.Extract(m.n)
	var swaps []rewire.Swap
	for _, sg := range ext.NonTrivial() {
		if len(sg.Leaves) <= 12 {
			swaps = append(swaps, rewire.Enumerate(sg)...)
		}
	}
	if len(swaps) == 0 {
		return nil
	}
	return rewire.Apply(m.n, swaps[m.rng.Intn(len(swaps))])
}

// randomResize flips a random logic gate to a random library size.
func (m *mutator) randomResize() bool {
	gates := m.n.GateSlice()
	for tries := 0; tries < 32; tries++ {
		g := gates[m.rng.Intn(len(gates))]
		if g.IsInput() {
			continue
		}
		m.n.SetSize(g, m.rng.Intn(library.NumSizes))
		return true
	}
	return false
}

// randomDeMorgan dualizes a random and-or supergate in place.
func (m *mutator) randomDeMorgan() bool {
	ext := supergate.Extract(m.n)
	var cands []*supergate.Supergate
	for _, sg := range ext.NonTrivial() {
		if sg.Kind == supergate.AndOr && len(sg.Leaves) <= 8 {
			cands = append(cands, sg)
		}
	}
	if len(cands) == 0 {
		return false
	}
	if _, err := rewire.DeMorgan(m.n, cands[m.rng.Intn(len(cands))]); err != nil {
		panic(err)
	}
	return true
}

// TestIncrementalMatchesFullSTA is the equivalence property test: random
// sequences of swaps, resizes, DeMorgan transforms, undos, and sweeps are
// applied to generated benchmarks, and after every batch the incremental
// timer must match a fresh full Analyze to within 1e-9.
func TestIncrementalMatchesFullSTA(t *testing.T) {
	for _, name := range []string{"c432", "alu2"} {
		t.Run(name, func(t *testing.T) {
			lib := library.Default035()
			n, err := gen.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			place.Place(n, lib, place.Options{Seed: 7, MovesPerCell: 5})
			sizing.SeedForLoad(n, lib, 0)

			inc := sta.NewIncremental(n, lib, 0)
			defer inc.Close()
			// Never fall back: this test must exercise the dirty-region
			// propagation itself, not the full-analysis escape hatch.
			inc.FullFraction = 2
			clock := inc.Timing().Clock
			requireMatch(t, "initial", n, lib, clock, inc.Timing())

			m := &mutator{rng: rand.New(rand.NewSource(99)), n: n}
			steps := 60
			if testing.Short() {
				steps = 15
			}
			for i := 0; i < steps; i++ {
				// 1-3 mutations per batch so Update coalesces dirt.
				batch := 1 + m.rng.Intn(3)
				desc := ""
				for k := 0; k < batch; k++ {
					switch m.rng.Intn(4) {
					case 0:
						if undo := m.randomSwap(); undo != nil {
							desc += "swap,"
							if m.rng.Intn(2) == 0 {
								undo()
								desc += "undo,"
							}
						}
					case 1:
						if m.randomResize() {
							desc += "resize,"
						}
					case 2:
						if m.randomDeMorgan() {
							desc += "demorgan,"
						}
					case 3:
						if removed := n.Sweep(); removed > 0 {
							desc += fmt.Sprintf("sweep(%d),", removed)
						}
					}
				}
				if err := n.Validate(); err != nil {
					t.Fatalf("step %d (%s): network invalid: %v", i, desc, err)
				}
				requireMatch(t, fmt.Sprintf("step %d (%s)", i, desc), n, lib, clock, inc.Update())
			}
			st := inc.Stats()
			if st.IncrementalUpdates == 0 {
				t.Fatalf("no incremental updates ran; the test exercised nothing (stats %+v)", st)
			}
			if st.FullAnalyses != 1 {
				t.Fatalf("expected exactly the construction-time full analysis, got %d", st.FullAnalyses)
			}
		})
	}
}

// TestIncrementalFullFallback drives the timer with FullFraction = 0 so
// every Update takes the seeded full-Analyze escape hatch, which must be
// just as correct.
func TestIncrementalFullFallback(t *testing.T) {
	lib := library.Default035()
	n, err := gen.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib, place.Options{Seed: 3, MovesPerCell: 5})
	inc := sta.NewIncremental(n, lib, 0)
	defer inc.Close()
	inc.FullFraction = 0
	clock := inc.Timing().Clock

	m := &mutator{rng: rand.New(rand.NewSource(5)), n: n}
	for i := 0; i < 8; i++ {
		m.randomResize()
		if undo := m.randomSwap(); undo != nil && m.rng.Intn(2) == 0 {
			undo()
		}
		requireMatch(t, fmt.Sprintf("step %d", i), n, lib, clock, inc.Update())
	}
	st := inc.Stats()
	if st.IncrementalUpdates != 0 {
		t.Fatalf("FullFraction=0 must force fallback, yet %d incremental updates ran", st.IncrementalUpdates)
	}
	if st.FullAnalyses < 2 {
		t.Fatalf("expected fallback full analyses, got %d", st.FullAnalyses)
	}
}

// TestIncrementalExplicitClock checks that a positive clock is honored and
// frozen across updates, so required times stay comparable.
func TestIncrementalExplicitClock(t *testing.T) {
	lib := library.Default035()
	n, err := gen.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib, place.Options{Seed: 3, MovesPerCell: 5})
	const clock = 25.0
	inc := sta.NewIncremental(n, lib, clock)
	defer inc.Close()
	inc.FullFraction = 2
	if inc.Timing().Clock != clock {
		t.Fatalf("clock not honored: %v", inc.Timing().Clock)
	}
	m := &mutator{rng: rand.New(rand.NewSource(11)), n: n}
	for i := 0; i < 5; i++ {
		m.randomResize()
		tm := inc.Update()
		if tm.Clock != clock {
			t.Fatalf("clock drifted to %v after update %d", tm.Clock, i)
		}
		requireMatch(t, fmt.Sprintf("step %d", i), n, lib, clock, tm)
	}
}

// TestIncrementalRemovedGates checks the bookkeeping when gates die: after
// a swap's undo removes its inverters (and after Sweep), the timer must
// hold no entries for dead gates and still match the oracle.
func TestIncrementalRemovedGates(t *testing.T) {
	lib := library.Default035()
	n, err := gen.Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	place.Place(n, lib, place.Options{Seed: 2, MovesPerCell: 5})
	inc := sta.NewIncremental(n, lib, 0)
	defer inc.Close()
	inc.FullFraction = 2
	clock := inc.Timing().Clock

	m := &mutator{rng: rand.New(rand.NewSource(21)), n: n}
	// Inverting swaps create inverters; undoing them removes gates.
	applied := 0
	for i := 0; i < 20 && applied < 6; i++ {
		if undo := m.randomSwap(); undo != nil {
			undo()
			applied++
			requireMatch(t, fmt.Sprintf("apply+undo %d", applied), n, lib, clock, inc.Update())
		}
	}
	n.Sweep()
	requireMatch(t, "after sweep", n, lib, clock, inc.Update())
}

// TestIncrementalStatsPinned pins the timer's work counters on a fixed
// seeded edit sequence. The counters depend on the exact order the level
// queues pop gates in — (level, ID), ascending for arrivals, descending
// level for required times — and on where reconvergence damping stops
// each sweep, so any change to either shows up here even when the
// resulting timing still matches the oracle.
func TestIncrementalStatsPinned(t *testing.T) {
	want := map[string]sta.IncStats{
		"c432": {FullAnalyses: 1, IncrementalUpdates: 28, DirtyGates: 196, MaxDirty: 23,
			ArrivalRecomputes: 1343, RequiredRecomputes: 955},
		"c3540": {FullAnalyses: 1, IncrementalUpdates: 29, DirtyGates: 224, MaxDirty: 22,
			ArrivalRecomputes: 7029, RequiredRecomputes: 7779},
	}
	for _, name := range []string{"c432", "c3540"} {
		t.Run(name, func(t *testing.T) {
			lib := library.Default035()
			n, err := gen.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			place.Place(n, lib, place.Options{Seed: 7, MovesPerCell: 5})
			sizing.SeedForLoad(n, lib, 0)
			inc := sta.NewIncremental(n, lib, 0)
			defer inc.Close()
			inc.FullFraction = 2
			m := &mutator{rng: rand.New(rand.NewSource(42)), n: n}
			for i := 0; i < 30; i++ {
				switch m.rng.Intn(3) {
				case 0:
					if undo := m.randomSwap(); undo != nil && m.rng.Intn(2) == 0 {
						undo()
					}
				case 1:
					m.randomResize()
				case 2:
					m.randomDeMorgan()
				}
				inc.Update()
			}
			if got := inc.Stats(); got != want[name] {
				t.Fatalf("timer counters moved:\n got  %#v\n want %#v", got, want[name])
			}
		})
	}
}
