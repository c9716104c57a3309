// Package sizing implements the gate-sizing algorithm the paper adopts
// from Coudert (§5, their reference [2]): maximize the minimum slack
// through iterative neighborhood search, followed by a relaxation phase
// that maximizes the sum of slacks to escape local minima, the two phases
// iterating until no further improvement.
//
// Every candidate resize is evaluated *locally*: the arrival times of the
// resized gate's fanin drivers and of all their sinks are recomputed with
// upstream arrivals and downstream required times frozen from the last
// analysis. Committed batches are then absorbed by an incremental timer
// (sta.Incremental) that re-propagates timing only through the resized
// region — full ground-truth analyses run once at the start and once at
// the end of a run (plus the timer's threshold fallbacks on batches that
// dirty most of a small network), not once per pass.
package sizing

import (
	"context"
	"math"
	"sort"

	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/sta"
)

const eps = 1e-9

// Objective selects the neighborhood objective of a phase.
type Objective int

const (
	// MinSlack maximizes the minimum slack in the neighborhood (phase 1).
	MinSlack Objective = iota
	// SumSlack maximizes the sum of slacks in the neighborhood (the
	// relaxation phase).
	SumSlack
)

// neighborhood collects the gates whose timing a resize of g can change
// locally — g's fanin drivers and every sink of those drivers (g itself
// among them) — into the scratch's reusable Hood buffer, in deterministic
// fanin-then-fanout order.
func neighborhood(g *network.Gate, sc *sta.Scratch) []*network.Gate {
	sc.Hood = sc.Hood[:0]
	add := func(x *network.Gate) {
		if sc.MarkSeen(x) {
			sc.Hood = append(sc.Hood, x)
		}
	}
	for _, d := range g.Fanins() {
		add(d)
		for _, s := range d.Fanouts() {
			add(s)
		}
	}
	add(g)
	return sc.Hood
}

// Score reduces a set of neighborhood slacks to the objective value:
// the minimum for MinSlack, the clock-clipped sum for SumSlack.
func Score(obj Objective, slacks []float64, clock float64) float64 {
	switch obj {
	case MinSlack:
		min := math.MaxFloat64
		for _, s := range slacks {
			if s < min {
				min = s
			}
		}
		return min
	default:
		sum := 0.0
		for _, s := range slacks {
			if s > clock {
				s = clock
			}
			sum += s
		}
		return sum
	}
}

// localSlacks computes the per-gate slacks of the neighborhood under the
// scratch's effective gate sizes (committed SizeIdx plus any override),
// with upstream arrivals and required times frozen from tm. The caller
// must have opened the evaluation with sc.Begin; results live in the
// scratch's Slacks buffer until the next evaluation. Everything is a pure
// read of tm and the network, so concurrent workers with private
// scratches can evaluate disjoint candidates in parallel.
func localSlacks(tm *sta.Timing, g *network.Gate, sc *sta.Scratch) []float64 {
	// Recompute the nets of g's fanin drivers (their loads and sink wire
	// delays change with g's pin capacitance).
	for _, d := range g.Fanins() {
		if sc.NetOf(d) != nil {
			continue
		}
		// Scratch.Net already folds in the PO pad load.
		m := sc.Net(tm, d, d.Fanouts())
		if d.IsInput() {
			sc.SetArrival(d, sta.Edge{})
			continue
		}
		sc.SetArrival(d, tm.GateOutputSc(sc, d, pinArrivals(tm, d, sc), m.Load))
	}
	// Then every sink of those drivers, g included.
	sc.Slacks = sc.Slacks[:0]
	appendSlack := func(x *network.Gate, arr sta.Edge) {
		r := tm.Required(x)
		sc.Slacks = append(sc.Slacks, math.Min(r.Rise-arr.Rise, r.Fall-arr.Fall))
	}
	for _, x := range neighborhood(g, sc) {
		if x.IsInput() {
			continue
		}
		if arr, isDriver := sc.HypArrival(x); isDriver {
			appendSlack(x, arr)
			continue
		}
		// A sink's load is unchanged (same sinks; for g itself the cell
		// changed but not the net), so tm.Load is still valid.
		arr := tm.GateOutputSc(sc, x, pinArrivals(tm, x, sc), tm.Load(x))
		appendSlack(x, arr)
	}
	return sc.Slacks
}

// pinArrivals assembles the in-pin arrival edges of gate x into the
// scratch's Pins buffer, preferring hypothetical driver arrivals and net
// models where the evaluation recorded them.
func pinArrivals(tm *sta.Timing, x *network.Gate, sc *sta.Scratch) []sta.Edge {
	sc.Pins = sc.Pins[:0]
	for _, d := range x.Fanins() {
		arr, ok := sc.HypArrival(d)
		if !ok {
			arr = tm.Arrival(d)
		}
		var w float64
		if m := sc.NetOf(d); m != nil {
			w = m.SinkDelay(x)
		} else {
			w = tm.WireDelay(d, x)
		}
		sc.Pins = append(sc.Pins, sta.Edge{Rise: arr.Rise + w, Fall: arr.Fall + w})
	}
	return sc.Pins
}

// EvalResize returns the objective gain of switching g to newSize, locally
// evaluated against tm. Positive is better. It is a convenience wrapper
// over EvalResizeScratch with a pooled arena.
func EvalResize(tm *sta.Timing, g *network.Gate, newSize int, obj Objective) float64 {
	sc := sta.GetScratch()
	gain := EvalResizeScratch(tm, g, newSize, obj, sc)
	sta.PutScratch(sc)
	return gain
}

// EvalResizeScratch is EvalResize evaluating through an explicit arena. g
// is never written: the hypothetical size lives in the scratch as an
// override (so mutation observers never see it and concurrent evaluations
// of neighboring gates never race on SizeIdx).
func EvalResizeScratch(tm *sta.Timing, g *network.Gate, newSize int, obj Objective, sc *sta.Scratch) float64 {
	if g.IsInput() || newSize == g.SizeIdx {
		return 0
	}
	before := sizedScore(tm, g, g.SizeIdx, obj, sc)
	return sizedScore(tm, g, newSize, obj, sc) - before
}

// sizedScore opens a fresh evaluation with g at size (an override unless
// it is the committed size) and returns the neighborhood objective.
func sizedScore(tm *sta.Timing, g *network.Gate, size int, obj Objective, sc *sta.Scratch) float64 {
	sc.Begin(tm)
	if size != g.SizeIdx {
		sc.OverrideSize(g, size)
	}
	return Score(obj, localSlacks(tm, g, sc), tm.Clock)
}

// BestResize returns the best alternative size for g and its gain.
// A non-positive gain means the current size is locally optimal.
func BestResize(tm *sta.Timing, g *network.Gate, obj Objective) (int, float64) {
	sc := sta.GetScratch()
	size, gain := BestResizeScratch(tm, g, obj, sc)
	sta.PutScratch(sc)
	return size, gain
}

// BestResizeScratch is BestResize evaluating through an explicit arena —
// the scoring engine's per-worker entry point. The current-size score is
// the same pure computation for every alternative, so it is evaluated
// once per site: each gain is bit-identical to EvalResizeScratch's.
func BestResizeScratch(tm *sta.Timing, g *network.Gate, obj Objective, sc *sta.Scratch) (int, float64) {
	bestSize, bestGain := g.SizeIdx, 0.0
	if g.IsInput() {
		return bestSize, bestGain
	}
	before := sizedScore(tm, g, g.SizeIdx, obj, sc)
	for s := 0; s < library.NumSizes; s++ {
		if s == g.SizeIdx {
			continue
		}
		if gain := sizedScore(tm, g, s, obj, sc) - before; gain > bestGain+eps {
			bestGain = gain
			bestSize = s
		}
	}
	return bestSize, bestGain
}

// DefaultStageTargetNS is the load-delay budget per stage used by
// SeedForLoad when none is given.
const DefaultStageTargetNS = 0.3

// SeedForLoad assigns initial implementations from actual post-placement
// loads: the smallest size whose drive resistance keeps the load-dependent
// delay term R × C_load within the per-stage target. This emulates what
// the paper's timing-driven mapper delivers — a netlist already sized for
// the loads it drives — and is the baseline all three optimizers start
// from. Because input capacitances feed back into loads, the fixed point
// is approached with two passes.
func SeedForLoad(n *network.Network, lib *library.Library, targetNS float64) {
	if targetNS <= 0 {
		targetNS = DefaultStageTargetNS
	}
	for pass := 0; pass < 2; pass++ {
		tm := sta.Analyze(n, lib, 0)
		n.Gates(func(g *network.Gate) {
			if g.IsInput() {
				return
			}
			load := tm.Load(g)
			for s := 0; s < library.NumSizes; s++ {
				c := lib.MustCell(g.Type, g.NumFanins(), s)
				r := math.Max(c.ResRise, c.ResFall)
				if r*load <= targetNS || s == library.NumSizes-1 {
					n.SetSize(g, s)
					break
				}
			}
		})
	}
}

// Options controls the standalone GS optimizer.
type Options struct {
	// Clock is the required time at primary outputs; <= 0 freezes the
	// initial critical delay as the target, making slack maximization
	// equivalent to delay minimization.
	Clock float64
	// MaxPasses bounds the phase-1/phase-2 iterations (default 8).
	MaxPasses int
	// Allowed filters which gates may be resized; nil allows all.
	Allowed func(*network.Gate) bool
	// Window, when > 0, restricts candidates to gates whose resize
	// neighborhood touches slack within Window×Clock of the worst slack —
	// the same criticality windowing opt.Options.Window applies to the
	// combined optimizer. 0 scores every allowed gate.
	Window float64
}

// Stats reports a sizing run.
type Stats struct {
	Passes       int
	Resizes      int
	InitialDelay float64
	FinalDelay   float64
	// Timer counts the timing work: full ground-truth analyses versus
	// incremental dirty-region updates.
	Timer sta.IncStats
	// Interrupted reports that the run's context was cancelled before
	// convergence; the network still holds the best sizing seen.
	Interrupted bool
}

// Optimize runs Coudert-style sizing on the whole network (or the Allowed
// subset) in place and returns statistics. Placement is never modified.
//
// Timing is maintained by an incremental timer: one full analysis seeds
// the run, every accepted batch is absorbed by dirty-region propagation,
// and one final full analysis is the ground truth for the reported delay.
//
// The context is checked at phase boundaries: a cancelled run stops
// early, restores the best sizing seen so far (anytime semantics), and
// is marked Interrupted. A nil context never cancels.
func Optimize(ctx context.Context, n *network.Network, lib *library.Library, o Options) Stats {
	if o.MaxPasses <= 0 {
		o.MaxPasses = 8
	}
	allowed := o.Allowed
	if allowed == nil {
		allowed = func(*network.Gate) bool { return true }
	}
	inc := sta.NewIncremental(n, lib, o.Clock)
	defer inc.Close()
	tm := inc.Timing()
	clock := tm.Clock
	st := Stats{InitialDelay: tm.CriticalDelay, FinalDelay: tm.CriticalDelay}

	// Relaxation may temporarily worsen the critical delay; remember the
	// best sizing seen and restore it at the end.
	bestDelay := tm.CriticalDelay
	bestSizes := snapshotSizes(n)
	sc := sta.NewScratch()
	for pass := 0; pass < o.MaxPasses; pass++ {
		improved := false
		for _, obj := range []Objective{MinSlack, SumSlack} {
			if ctx != nil && ctx.Err() != nil {
				st.Interrupted = true
				break
			}
			tm = inc.Update()
			applied := applyPhase(n, tm, obj, phaseFilter(tm, o, allowed), &st, sc)
			if applied == 0 {
				continue
			}
			after := inc.Update()
			if after.CriticalDelay < bestDelay-eps {
				bestDelay = after.CriticalDelay
				bestSizes = snapshotSizes(n)
				improved = true
			}
		}
		if st.Interrupted {
			break
		}
		st.Passes = pass + 1
		if !improved {
			break
		}
	}
	restoreSizes(n, bestSizes)
	st.Timer = inc.Stats()
	final := sta.Analyze(n, lib, clock)
	st.FinalDelay = final.CriticalDelay
	return st
}

func snapshotSizes(n *network.Network) map[*network.Gate]int {
	m := make(map[*network.Gate]int, n.NumGates())
	n.Gates(func(g *network.Gate) { m[g] = g.SizeIdx })
	return m
}

func restoreSizes(n *network.Network, sizes map[*network.Gate]int) {
	n.Gates(func(g *network.Gate) {
		if s, ok := sizes[g]; ok {
			n.SetSize(g, s)
		}
	})
}

// phaseFilter combines the caller's Allowed predicate with the
// criticality window: with Window set, only gates whose neighborhood (the
// gate, its fanin drivers, and their sinks) touches slack within
// Window×Clock of the worst are candidates.
func phaseFilter(tm *sta.Timing, o Options, allowed func(*network.Gate) bool) func(*network.Gate) bool {
	if o.Window <= 0 {
		return allowed
	}
	threshold := tm.WorstSlack() + o.Window*tm.Clock
	critical := func(g *network.Gate) bool { return tm.Slack(g) <= threshold }
	return func(g *network.Gate) bool {
		if !allowed(g) {
			return false
		}
		if critical(g) {
			return true
		}
		for _, d := range g.Fanins() {
			if critical(d) {
				return true
			}
			for _, s := range d.Fanouts() {
				if critical(s) {
					return true
				}
			}
		}
		return false
	}
}

type resizeMove struct {
	g    *network.Gate
	size int
	gain float64
}

// applyPhase finds the best resize per gate, sorts by gain, and applies
// them in order, revalidating each against the mutated state. It returns
// the number of resizes applied.
func applyPhase(n *network.Network, tm *sta.Timing, obj Objective, allowed func(*network.Gate) bool, st *Stats, sc *sta.Scratch) int {
	var moves []resizeMove
	n.Gates(func(g *network.Gate) {
		if g.IsInput() || !allowed(g) {
			return
		}
		if size, gain := BestResizeScratch(tm, g, obj, sc); gain > eps {
			moves = append(moves, resizeMove{g, size, gain})
		}
	})
	sortMoves(moves)
	applied := 0
	for _, m := range moves {
		// Earlier applications change the local picture; re-evaluate
		// before committing (the "best sequence" selection of §5).
		if gain := EvalResizeScratch(tm, m.g, m.size, obj, sc); gain > eps {
			n.SetSize(m.g, m.size)
			applied++
			st.Resizes++
		}
	}
	return applied
}

// sortMoves orders by gain with the gates' dense IDs as a stable
// secondary key, so equal-gain moves apply in a reproducible order no
// matter how the candidate list was produced.
func sortMoves(moves []resizeMove) {
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].gain != moves[j].gain {
			return moves[i].gain > moves[j].gain
		}
		return moves[i].g.ID() < moves[j].g.ID()
	})
}
