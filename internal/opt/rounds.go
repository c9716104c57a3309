package opt

import (
	"context"

	"repro/internal/library"
	"repro/internal/network"
	"repro/internal/sta"
	"repro/internal/supergate"
	"repro/internal/techmap"
)

// optimizeRounds is Optimize with o.Rounds > 1: the optimizer restarted
// on the whole network up to o.Rounds times. Each round is a fresh
// Optimize — one iteration when o.Window is unset, o.MaxIters otherwise —
// that re-seeds its incremental timer, supergate cache and stopping rule
// from the previous round's network. All rounds share one scoring
// engine, so its scratch arenas warm up once per run. After a round that
// committed moves, the orphans are swept and one from-scratch analysis
// serves as both that round's ground truth and the next round's
// baseline. The run stops after a round that commits nothing or does not
// improve the lateness.
//
// Every round's own lateness guard keeps the critical delay from
// regressing, so the guarantees of Optimize hold for the whole run. The
// context is checked at round boundaries and handed to every round.
func optimizeRounds(ctx context.Context, n *network.Network, lib *library.Library, strat Strategy, o Options) Result {
	tm := sta.AnalyzeReleased(n, lib, o.Clock, o.Bounds)
	clock := tm.Clock
	ext := supergate.Extract(n)
	res := Result{
		Strategy:     strat,
		InitialDelay: tm.CriticalDelay,
		FinalDelay:   tm.CriticalDelay,
		InitialArea:  techmap.Area(n, lib),
		Coverage:     ext.Coverage(),
		MaxLeaves:    ext.MaxLeaves(),
		Redundancies: len(ext.Redundancies),
	}
	res.Timer.FullAnalyses++
	report := func(round, applied int) {
		if o.Progress != nil {
			o.Progress(PhaseReport{
				Iteration: round + 1, Phase: "round", Applied: applied,
				Delay: tm.CriticalDelay, Lateness: tm.Lateness,
				Swaps: res.Swaps, Resizes: res.Resizes,
			})
		}
	}
	if o.Progress != nil {
		o.Progress(PhaseReport{
			Phase: "start", Delay: tm.CriticalDelay, Lateness: tm.Lateness,
		})
	}

	so := o
	so.Rounds = 0
	if o.Window <= 0 {
		// Unwindowed phases score every near-critical site, so the rounds
		// are the outer loop and each runs one iteration. Windowed phases
		// are site-budgeted and cheap; they keep the caller's budget.
		so.MaxIters = 1
	}
	so.Clock = clock
	so.engine = NewEngine(o.Workers)
	defer so.engine.Release()
	// The round's FinalDelay is discarded in favour of the analysis
	// below, and its phase reports are replaced by one per round.
	so.skipFinal = true
	so.Progress = nil

	bestLateness := tm.Lateness
	for round := 0; round < o.Rounds; round++ {
		if cancelled(ctx) {
			res.Interrupted = true
			break
		}
		r := Optimize(ctx, n, lib, strat, so)
		res.Timer.Add(r.Timer)
		res.Extractor.Add(r.Extractor)
		res.Evals.Add(r.Evals)
		res.Iterations = round + 1
		applied := r.Swaps + r.Resizes
		if applied == 0 {
			// Nothing committed: n, and therefore tm, are unchanged.
			report(round, 0)
			break
		}
		res.Swaps += r.Swaps
		res.Resizes += r.Resizes
		n.Sweep()
		sta.ReleaseTiming(tm)
		tm = sta.AnalyzeReleased(n, lib, clock, o.Bounds)
		res.Timer.FullAnalyses++
		improved := tm.Lateness < bestLateness-eps
		if tm.Lateness < bestLateness {
			bestLateness = tm.Lateness
		}
		report(round, applied)
		if !improved {
			break
		}
	}
	if cancelled(ctx) {
		res.Interrupted = true
	}
	res.FinalDelay = tm.CriticalDelay
	sta.ReleaseTiming(tm)
	res.FinalArea = techmap.Area(n, lib)
	return res
}
