package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/blif"
	"repro/internal/gen"
	"repro/rapids"
)

// flowItem is one circuit of the flow list, with the options it runs
// under beyond the CLI defaults.
type flowItem struct {
	name    string
	regions int
	window  float64
	blif    []byte
}

// flowList is the circuit list of one flow pass: three circuits at the
// defaults of cmd/rapids, then s38417 region-partitioned and windowed.
func flowList(quick bool) []flowItem {
	if quick {
		return []flowItem{{name: "c432"}, {name: "c432", regions: 8, window: 0.005}}
	}
	return []flowItem{
		{name: "s38417"},
		{name: "s15850"},
		{name: "c6288"},
		{name: "s38417", regions: 8, window: 0.005},
	}
}

// blifText generates a Table 1 stand-in and writes it as BLIF text.
func blifText(name string) ([]byte, error) {
	n, err := gen.Generate(name)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := blif.Write(&buf, n); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// flowPass is what one pass over the list measured.
type flowPass struct {
	wall    time.Duration   // sum of the timed layer calls
	walls   []time.Duration // each circuit's timed calls
	results []*rapids.Result
	places  []rapids.Placement
}

// runFlow is the flow workload: one caller runs the circuit list through
// the CLI path (LoadReader, Place, DelayNS, Optimize) pass after pass.
// Placement uses the CLI's default seed, so the workload seed changes
// nothing here: the optimizer's iteration count, and with it a pass's
// work, swings by a third between placements (see README.md).
func runFlow(cfg config, rec *recorder) (*outcome, error) {
	o := newOutcome()
	items, setup, err := medianSetup(setupRepeats(cfg), o.cal, func() ([]flowItem, error) {
		items := flowList(cfg.quick)
		texts := map[string][]byte{}
		for i := range items {
			if texts[items[i].name] == nil {
				b, err := blifText(items[i].name)
				if err != nil {
					return nil, err
				}
				texts[items[i].name] = b
			}
			items[i].blif = texts[items[i].name]
		}
		return items, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	o.m["setup_s"] = setup

	// At least two passes, so QoR can be compared across passes. A traced
	// run makes exactly three: an untraced warm-up, a traced pass, and an
	// untraced pass the traced one is compared with for the overhead.
	var passes []flowPass
	rt := startTimed()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	more := func() bool {
		if rec != nil {
			return len(passes) < 3
		}
		return len(passes) < 2 || time.Now().Before(deadline)
	}
	for more() {
		var r *recorder
		if rec != nil && len(passes) == 1 {
			r = rec
		}
		p := flowOnce(items, o, r)
		if len(passes) > 0 {
			for i, res := range p.results {
				if first := passes[0].results[i]; res != nil && first != nil {
					err := checkSameQoR(qorOf(first), qorOf(res))
					o.check(err == nil, "%s: %v", items[i].name, err)
				}
			}
		}
		passes = append(passes, p)
	}
	elapsed := time.Since(start)
	speed := o.emitTimed(rt, start, elapsed, len(passes))
	// The median pass: each circuit's median wall over the passes,
	// summed over the list, at the reference speed.
	for i := range items {
		var walls []float64
		for _, p := range passes {
			walls = append(walls, ms(p.walls[i]))
		}
		o.m["op_ms"] += quantile(walls, 0.5) * speed
	}
	if rec != nil {
		flowLayers(o, rec, passes[1], passes[2])
	}
	return o, nil
}

// flowOnce runs one pass, with two calibration samples before each
// circuit. With a recorder it records spans and splits verification out
// of Optimize: WithVerification(0), then Clone before and EquivalentTo
// after, with the rounds and seed Optimize would use.
func flowOnce(items []flowItem, o *outcome, rec *recorder) flowPass {
	var p flowPass
	for _, it := range items {
		o.cal.sample()
		o.cal.sample()
		op := rec.newOp()
		root := rec.add(op, 0, "bench.circuit", time.Time{}, time.Time{}, it.name)
		t0 := time.Now()
		c, err := rapids.LoadReader(bytes.NewReader(it.blif), rapids.FormatBLIF, it.name)
		t1 := time.Now()
		if !o.check(err == nil, "%s: load: %v", it.name, err) {
			p.walls = append(p.walls, t1.Sub(t0))
			p.results = append(p.results, nil)
			p.places = append(p.places, rapids.Placement{})
			continue
		}
		pl := c.Place(rapids.PlaceSeed(1), rapids.PlaceMoves(30))
		t2 := time.Now()
		c.DelayNS()
		t3 := time.Now()
		before := c.Locations()

		var orig *rapids.Circuit
		var cloneStart, cloneEnd time.Time
		verify := rapids.DefaultVerifyRounds
		if rec != nil {
			cloneStart = time.Now()
			orig = c.Clone()
			cloneEnd = time.Now()
			verify = 0
		}
		opts := []rapids.Option{
			rapids.WithStrategy(rapids.GsgGS),
			rapids.WithIters(8),
			rapids.WithWorkers(2),
			rapids.WithVerification(verify),
			rapids.WithRegions(it.regions),
			rapids.WithWindow(it.window),
		}
		var optSpan int
		if rec != nil {
			optSpan = rec.add(op, root, "opt.optimize", time.Time{}, time.Time{}, "")
			opts = append(opts, rapids.WithProgress(func(ev rapids.Event) {
				end := time.Now()
				rec.add(op, optSpan, eventSpan(ev), end.Add(-ev.Elapsed), end, "")
			}))
		}
		t4 := time.Now()
		res, err := c.Optimize(context.Background(), opts...)
		t5 := time.Now()
		var verr error
		var v0, v1 time.Time
		if rec != nil && err == nil {
			v0 = time.Now()
			verr = c.EquivalentTo(orig, rapids.DefaultVerifyRounds, verifySeed)
			v1 = time.Now()
			if verr == nil {
				res.Verification = rapids.VerifyPassed
			}
		}
		wall := t3.Sub(t0) + t5.Sub(t4) + cloneEnd.Sub(cloneStart) + v1.Sub(v0)
		p.wall += wall
		p.walls = append(p.walls, wall)

		if rec != nil {
			if err == nil {
				rec.add(op, root, "sim.verify", v0, v1, "")
			}
			rec.setTimes(optSpan, t4, t5)
			rec.add(op, root, "blif.load", t0, t1, "")
			rec.add(op, root, "place.place", t1, t2, "")
			rec.add(op, root, "sta.report", t2, t3, "")
			rec.add(op, root, "sim.clone", cloneStart, cloneEnd, "")
		}

		if verr != nil {
			err = fmt.Errorf("rapids: %s changed function: %w", it.name, verr)
		}
		if cerr := checkVerified(res, err); o.check(cerr == nil, "%s: %v", it.name, cerr) {
			lerr := checkLocations(before, c.Locations())
			o.check(lerr == nil, "%s: %v", it.name, lerr)
		}
		// The root span's self time is the benchmark's own work between
		// and after the layer calls: the Locations reads and the checks.
		rec.setTimes(root, t0, time.Now())
		p.results = append(p.results, res)
		p.places = append(p.places, pl)
	}
	return p
}

// verifySeed is the seed Optimize's own equivalence check uses; the
// traced run's split-out check must do the same work.
const verifySeed = 12345

// eventSpan names the span of one facade progress event: opt.seed,
// opt.min_slack, opt.sum_slack, opt.round or opt.final. The traced pass
// turns verification off, so no verify event arrives.
func eventSpan(ev rapids.Event) string {
	switch ev.Kind {
	case rapids.EventStart:
		return "opt.seed"
	case rapids.EventPhase:
		return "opt." + strings.ReplaceAll(ev.Phase, "-", "_")
	}
	return "opt.final"
}

// flowLayers fills the per-layer metrics of a traced flow run from its
// traced pass and the untraced pass after it.
func flowLayers(o *outcome, rec *recorder, traced, untraced flowPass) {
	o.m["flow_wall_s"] = untraced.wall.Seconds()
	o.m["trace.overhead_pct"] = 100 * (traced.wall.Seconds()/untraced.wall.Seconds() - 1)

	spans := rec.snapshot()
	sp := selfTimes(spans)
	emitSplit(o.m, sp, 1)
	byName := map[string]time.Duration{}
	for _, s := range spans {
		byName[s.Name] += s.dur()
	}
	o.m["blif.load_s"] = byName["blif.load"].Seconds()
	o.m["place.place_s"] = byName["place.place"].Seconds()
	o.m["sta.report_s"] = byName["sta.report"].Seconds()
	o.m["sim.verify_s"] = (byName["sim.verify"] + byName["sim.clone"]).Seconds()
	o.m["opt.seed_s"] = byName["opt.seed"].Seconds()
	o.m["opt.min_slack_s"] = byName["opt.min_slack"].Seconds()
	o.m["opt.sum_slack_s"] = byName["opt.sum_slack"].Seconds()
	o.m["opt.round_s"] = byName["opt.round"].Seconds()
	o.m["opt.final_s"] = byName["opt.final"].Seconds()
	phaseTime := byName["opt.min_slack"] + byName["opt.sum_slack"] + byName["opt.round"]

	var gain, area, hpwl []float64
	var cand, committed, dirtyWeighted, updates float64
	for i, res := range traced.results {
		if res == nil {
			continue
		}
		gain = append(gain, res.ImprovementPct())
		area = append(area, res.AreaDeltaPct())
		if pl := traced.places[i]; pl.InitialHPWLUM > 0 {
			hpwl = append(hpwl, pl.FinalHPWLUM/pl.InitialHPWLUM)
		}
		cand += float64(res.Evals.Candidates())
		committed += float64(res.Swaps + res.Resizes)
		o.m["opt.phases"] += float64(res.Evals.Phases)
		o.m["opt.moves"] += float64(res.Evals.Moves)
		updates += float64(res.Timer.IncrementalUpdates)
		dirtyWeighted += res.Timer.AvgDirty * float64(res.Timer.IncrementalUpdates)
		if d := float64(res.Timer.MaxDirty); d > o.m["sta.max_dirty"] {
			o.m["sta.max_dirty"] = d
		}
		o.m["sta.arrival_recomputes"] += float64(res.Timer.ArrivalRecomputes)
		o.m["sta.required_recomputes"] += float64(res.Timer.RequiredRecomputes)
		o.m["supergate.full_extractions"] += float64(res.Extractor.FullExtractions)
		o.m["supergate.flushes"] += float64(res.Extractor.IncrementalFlushes)
		o.m["supergate.reextracted"] += float64(res.Extractor.Reextracted)
	}
	o.m["delay_gain_pct"] = mean(gain)
	o.m["area_delta_pct"] = mean(area)
	o.m["place.hpwl_ratio"] = mean(hpwl)
	o.m["opt.candidates"] = cand
	o.m["opt.committed"] = committed
	o.m["sta.incremental_updates"] = updates
	if updates > 0 {
		o.m["sta.avg_dirty"] = dirtyWeighted / updates
	}
	if cand > 0 {
		o.m["opt.accept_ratio"] = committed / cand
	}
	if phaseTime > 0 {
		o.m["opt.candidates_per_s"] = cand / phaseTime.Seconds()
	}
}
