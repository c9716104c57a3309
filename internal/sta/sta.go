// Package sta is the static timing analyzer of the post-placement flow.
// It combines the library's pin-to-pin load-dependent gate delay model
// (separate rise and fall, §6) with the star-model Elmore interconnect
// delays of the wire package, and produces per-gate arrival times,
// required times, and slacks.
//
// Conventions: a gate's "arrival" is at its out-pin; primary inputs arrive
// at time 0; the required time at every primary output is the clock
// constraint (or, when no clock is given, the critical delay itself, which
// makes the worst slack exactly zero and turns slack maximization into
// delay minimization, as in the paper's optimizer).
//
// Two timers share the delay model. Analyze is the ground-truth oracle: a
// from-scratch three-pass analysis of the whole network. Incremental
// subscribes to network mutation events and, on Update, re-propagates
// timing only through the dirty region — the optimizers' hot path. See
// incremental.go for the invalidation rules.
//
// Per-gate state lives in dense gate-ID-indexed arrays, not maps: gate IDs
// are dense and never reused (network.IDBound), and the profile-guided
// pass of PR 6 found pointer-keyed map lookups (Arrival, WireDelay, Slack,
// level ordering) were ~30 % of the optimizer's total CPU. Array indexing
// replaces hashing everywhere on the hot path; accessors bounds-check so a
// gate created after the analysis reads as zero, exactly like a map miss.
package sta

import (
	"math"
	"sync"

	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
)

// POLoadPF is the fixed capacitive load presented by a primary-output pad
// in pF.
const POLoadPF = 0.03

// Edge carries separate rise and fall times in ns.
type Edge struct{ Rise, Fall float64 }

// Max returns the worse of the two edges.
func (e Edge) Max() float64 {
	if e.Rise > e.Fall {
		return e.Rise
	}
	return e.Fall
}

// Min returns the better of the two edges.
func (e Edge) Min() float64 {
	if e.Rise < e.Fall {
		return e.Rise
	}
	return e.Fall
}

func (e Edge) add(d float64) Edge { return Edge{e.Rise + d, e.Fall + d} }

const inf = math.MaxFloat64

// wireEntry is one driver's cached star model: the total net load and the
// wire delay to each sink, in parallel slices reused across rebuilds (an
// incremental update that re-models a dirty net truncates and refills them
// in place instead of allocating a fresh map per net).
type wireEntry struct {
	valid  bool
	load   float64
	sinks  []*network.Gate
	delays []float64
}

// sinkDelay returns the wire delay to sink s — the worst over duplicate
// entries, 0 when s is not a sink. Nets average a few pins, so the linear
// scan beats any map.
func (w *wireEntry) sinkDelay(s *network.Gate) float64 {
	d, found := 0.0, false
	for i, t := range w.sinks {
		if t == s && (!found || w.delays[i] > d) {
			d = w.delays[i]
			found = true
		}
	}
	return d
}

// Timing holds the results of one analysis. It is invalidated by any
// structural, sizing, or placement change; run Analyze again, or keep it
// live through an Incremental timer (the optimizers use
// ComputeNet/GateOutput for hypothetical local evaluation in between).
type Timing struct {
	n      *network.Network
	lib    *library.Library
	bounds *Bounds

	// Dense gate-ID-indexed state. A gate with ID beyond the array bound
	// (created after the last analysis/update) reads as the zero value
	// through the accessors, mirroring the map-miss semantics this layout
	// replaced.
	arrival  []Edge
	required []Edge
	load     []float64
	wire     []wireEntry

	// nsc is the net-model scratch setNet rebuilds committed nets through;
	// only its geometry buffers persist (sink/delay slices belong to the
	// wire entries).
	nsc NetModel

	// Clock is the PO required time used; equals CriticalDelay when
	// Analyze was called without a positive clock.
	Clock float64
	// CriticalDelay is the maximum PO arrival.
	CriticalDelay float64
	// Lateness is the worst violation of the primary outputs' boundary
	// required times: max over POs of (arrival − pinned required), per
	// edge. Without pinned bounds this is exactly CriticalDelay − Clock,
	// so comparing latenesses is comparing critical delays; with pinned
	// per-PO required times it is the metric that stays meaningful. The
	// optimizers' regression guard compares this field.
	Lateness float64
}

// grow extends the per-gate arrays to cover IDs below bound. Existing
// entries keep their values; new slots are zero (invalid wire entries).
func (t *Timing) grow(bound int) {
	if bound <= len(t.arrival) {
		return
	}
	t.arrival = append(t.arrival, make([]Edge, bound-len(t.arrival))...)
	t.required = append(t.required, make([]Edge, bound-len(t.required))...)
	t.load = append(t.load, make([]float64, bound-len(t.load))...)
	t.wire = append(t.wire, make([]wireEntry, bound-len(t.wire))...)
}

// forget zeroes every per-gate entry of a removed gate, restoring the
// exact map-miss reads the deleted keys used to produce.
func (t *Timing) forget(g *network.Gate) {
	id := g.ID()
	if id >= len(t.arrival) {
		return
	}
	t.arrival[id] = Edge{}
	t.required[id] = Edge{}
	t.load[id] = 0
	t.wire[id].valid = false
}

// setNet installs the committed star model of driver d, reusing the
// entry's slices for the sink/delay pairs and the Timing-held scratch for
// the star geometry, so a net rebuild allocates only on first growth.
func (t *Timing) setNet(d *network.Gate, sinks []*network.Gate) *wireEntry {
	w := &t.wire[d.ID()]
	w.valid = true
	m := &t.nsc
	m.sinks = w.sinks[:0]
	m.delays = w.delays[:0]
	t.computeNetInto(nil, m, d, sinks)
	w.load = m.Load
	w.sinks = m.sinks
	w.delays = m.delays
	m.sinks = nil // the entry owns these now; never reuse them as scratch
	m.delays = nil
	return w
}

// Analyze runs a full timing analysis of the mapped, placed network. If
// clock <= 0 the PO required time is set to the measured critical delay.
func Analyze(n *network.Network, lib *library.Library, clock float64) *Timing {
	return AnalyzeBounded(n, lib, clock, nil)
}

// AnalyzeBounded is Analyze under pinned boundary conditions: primary
// inputs listed in b arrive at their pinned times instead of 0, and
// primary outputs listed in b are required at their pinned times instead
// of the clock. A nil b is exactly Analyze.
func AnalyzeBounded(n *network.Network, lib *library.Library, clock float64, b *Bounds) *Timing {
	t := &Timing{n: n, lib: lib, bounds: b}
	t.analyzeInto(clock, nil)
	return t
}

// timingPool recycles the dense per-gate arrays of released analyses. The
// optimizer runs short-lived analyses (the final ground truth of every
// run, one more per restart round) and hands incremental timers their
// Timing from here; without recycling, each pays a fresh allocation of
// four network-sized arrays plus the per-net sink slices.
var timingPool = sync.Pool{New: func() interface{} { return &Timing{} }}

// AnalyzeReleased is AnalyzeBounded on a pooled Timing: the returned
// analysis reuses arrays from an earlier ReleaseTiming when available.
// Callers that drop the analysis after reading it should hand it back
// with ReleaseTiming.
func AnalyzeReleased(n *network.Network, lib *library.Library, clock float64, b *Bounds) *Timing {
	t := timingPool.Get().(*Timing)
	t.n, t.lib, t.bounds = n, lib, b
	t.analyzeInto(clock, nil)
	return t
}

// ReleaseTiming returns an analysis obtained from AnalyzeReleased (or an
// Incremental released with Release) to the pool. The Timing must not be
// read afterwards.
func ReleaseTiming(t *Timing) {
	t.n, t.lib, t.bounds = nil, nil, nil
	timingPool.Put(t)
}

// analyzeInto runs the three-pass analysis in place, reusing the per-gate
// arrays (the incremental timer's threshold fallback re-analyzes into the
// same Timing so its array capacity amortizes across the run). order may
// be nil, in which case a fresh topological order is computed.
func (t *Timing) analyzeInto(clock float64, order []*network.Gate) {
	n := t.n
	t.bounds.densify(n.IDBound())
	if order == nil {
		// Any valid topological order serves: every write below is
		// ID-indexed dataflow, so the values are order-independent.
		order = n.TopoOrderFast()
	}
	bound := n.IDBound()
	// Reset: zero the reused prefix, then grow to the current bound.
	for i := range t.arrival {
		t.arrival[i] = Edge{}
		t.required[i] = Edge{}
		t.load[i] = 0
		t.wire[i].valid = false
	}
	t.grow(bound)
	t.CriticalDelay = 0

	// Pass 1: driver loads (wire + sink pins + PO pad). The star models are
	// kept in the wire cache so passes 2-3 (and the incremental timer) never
	// rebuild them.
	for _, g := range order {
		w := t.setNet(g, g.Fanouts())
		t.load[g.ID()] = w.load + padLoad(g)
	}

	// Pass 2: arrivals.
	var pinArr []Edge
	for _, g := range order {
		if g.IsInput() {
			t.arrival[g.ID()] = t.bounds.arrivalOf(g)
			continue
		}
		pinArr = pinArr[:0]
		for _, d := range g.Fanins() {
			pinArr = append(pinArr, t.arrival[d.ID()].add(t.WireDelay(d, g)))
		}
		t.arrival[g.ID()] = t.GateOutput(g, pinArr, t.load[g.ID()])
	}
	pos := n.Outputs()
	for _, po := range pos {
		if a := t.arrival[po.ID()].Max(); a > t.CriticalDelay {
			t.CriticalDelay = a
		}
	}
	t.Clock = clock
	if t.Clock <= 0 {
		t.Clock = t.CriticalDelay
	}
	t.Lateness = poLateness(t, pos)

	// Pass 3: required times, walking in reverse topological order.
	for _, g := range order {
		t.required[g.ID()] = Edge{inf, inf}
	}
	for _, po := range pos {
		t.required[po.ID()] = t.bounds.requiredOf(po, t.Clock)
	}
	for i := len(order) - 1; i >= 0; i-- {
		s := order[i]
		if s.IsInput() {
			continue
		}
		for _, d := range s.Fanins() {
			// requiredCandidate is the single source of the arc equation,
			// shared with the incremental timer's backward sweep.
			cand := requiredCandidate(t, s, t.WireDelay(d, s))
			cur := t.required[d.ID()]
			if cand.Rise < cur.Rise {
				cur.Rise = cand.Rise
			}
			if cand.Fall < cur.Fall {
				cur.Fall = cand.Fall
			}
			t.required[d.ID()] = cur
		}
	}
}

// padLoad returns the non-net load of g: the PO pad when g is a primary
// output.
func padLoad(g *network.Gate) float64 {
	if g.PO {
		return POLoadPF
	}
	return 0
}

// poLatenessOne is the single-output lateness term: the worse edge of
// arrival minus the pinned (or clock) required time. Analyze's PO scan
// and the incremental timer's rescan both reduce over it, so the guard
// metric has exactly one definition.
func poLatenessOne(t *Timing, po *network.Gate) float64 {
	a := t.Arrival(po)
	req := t.bounds.requiredOf(po, t.Clock)
	return math.Max(a.Rise-req.Rise, a.Fall-req.Fall)
}

// poLateness reduces the primary outputs to the worst boundary violation.
// A network without primary outputs has zero lateness.
func poLateness(t *Timing, pos []*network.Gate) float64 {
	lat := math.Inf(-1)
	for _, po := range pos {
		if l := poLatenessOne(t, po); l > lat {
			lat = l
		}
	}
	if math.IsInf(lat, -1) {
		return 0
	}
	return lat
}

type unateness int

const (
	inverting unateness = iota
	nonInverting
	nonUnate
)

func edgeBehavior(t logic.GateType) unateness {
	switch t {
	case logic.Inv, logic.Nand, logic.Nor:
		return inverting
	case logic.Buf, logic.And, logic.Or:
		return nonInverting
	default: // XOR family
		return nonUnate
	}
}

func (t *Timing) cellOf(g *network.Gate) *library.Cell {
	return t.lib.MustCell(g.Type, g.NumFanins(), g.SizeIdx)
}

// NetInfo describes one (possibly hypothetical) net: the total load seen
// by the driver and the wire delay to each sink gate.
type NetInfo struct {
	Load      float64
	SinkDelay map[*network.Gate]float64
}

// ComputeNet builds the star model for driver d over an explicit sink
// list, which need not be d's current fanouts — optimizers pass
// hypothetical sink sets to evaluate rewiring moves before committing
// them. Unplaced terminals contribute no wire parasitics. The math lives
// in computeNetInto (scratch.go), shared with the arena path, and the
// per-sink map keeps the worst delay over duplicate sink entries.
func (t *Timing) ComputeNet(d *network.Gate, sinks []*network.Gate) NetInfo {
	var m NetModel
	t.computeNetInto(nil, &m, d, sinks)
	info := NetInfo{Load: m.Load, SinkDelay: make(map[*network.Gate]float64, len(sinks))}
	for i, s := range m.sinks {
		if cur, ok := info.SinkDelay[s]; !ok || m.delays[i] > cur {
			info.SinkDelay[s] = m.delays[i]
		}
	}
	return info
}

// WireDelay returns the interconnect delay from driver d's out-pin to sink
// s under the current (committed) netlist. It never mutates the Timing —
// Analyze and the incremental timer keep the per-driver star cache
// complete, so concurrent scoring workers can all call it; an uncached
// driver (possible only for gates created after the analysis) recomputes
// on the fly.
func (t *Timing) WireDelay(d, s *network.Gate) float64 {
	if id := d.ID(); id < len(t.wire) && t.wire[id].valid {
		return t.wire[id].sinkDelay(s)
	}
	return t.ComputeNet(d, d.Fanouts()).SinkDelay[s]
}

// GateOutput computes the out-pin arrival of g from explicit per-pin input
// arrivals and an explicit output load, using g's current cell. It is pure
// with respect to the committed analysis, so optimizers can call it with
// hypothetical values.
func (t *Timing) GateOutput(g *network.Gate, pinArr []Edge, load float64) Edge {
	return t.gateOutputCell(t.cellOf(g), g, pinArr, load)
}

// gateOutputCell is GateOutput with an explicit cell, shared with the
// scratch-aware size-override path (GateOutputSc).
func (t *Timing) gateOutputCell(cell *library.Cell, g *network.Gate, pinArr []Edge, load float64) Edge {
	dRise, dFall := cell.Delay(load)
	var worstRise, worstFall float64 // worst causing-input times
	for _, pa := range pinArr {
		switch edgeBehavior(g.Type) {
		case inverting:
			// Output rise is caused by input fall and vice versa.
			if pa.Fall > worstRise {
				worstRise = pa.Fall
			}
			if pa.Rise > worstFall {
				worstFall = pa.Rise
			}
		case nonInverting:
			if pa.Rise > worstRise {
				worstRise = pa.Rise
			}
			if pa.Fall > worstFall {
				worstFall = pa.Fall
			}
		default:
			m := pa.Max()
			if m > worstRise {
				worstRise = m
			}
			if m > worstFall {
				worstFall = m
			}
		}
	}
	return Edge{Rise: worstRise + dRise, Fall: worstFall + dFall}
}

// Network returns the network this analysis describes.
func (t *Timing) Network() *network.Network { return t.n }

// Bounds returns the pinned boundary conditions of this analysis, or nil
// for a whole-network analysis.
func (t *Timing) Bounds() *Bounds { return t.bounds }

// Arrival returns the out-pin arrival time of g.
func (t *Timing) Arrival(g *network.Gate) Edge {
	if id := g.ID(); id < len(t.arrival) {
		return t.arrival[id]
	}
	return Edge{}
}

// Required returns the out-pin required time of g. Gates that reach no
// primary output have +inf required time.
func (t *Timing) Required(g *network.Gate) Edge {
	if id := g.ID(); id < len(t.required) {
		return t.required[id]
	}
	return Edge{}
}

// Load returns the total output load of g in pF.
func (t *Timing) Load(g *network.Gate) float64 {
	if id := g.ID(); id < len(t.load) {
		return t.load[id]
	}
	return 0
}

// Slack returns the worst-edge slack of g.
func (t *Timing) Slack(g *network.Gate) float64 {
	a, r := t.Arrival(g), t.Required(g)
	return math.Min(r.Rise-a.Rise, r.Fall-a.Fall)
}

// WorstSlack returns the minimum slack over all gates.
func (t *Timing) WorstSlack() float64 {
	worst := inf
	t.n.Gates(func(g *network.Gate) {
		if s := t.Slack(g); s < worst {
			worst = s
		}
	})
	return worst
}

// SlackSum returns the sum of gate slacks, with each slack clipped to the
// clock period to keep far-off-critical gates from dominating. This is the
// relaxation objective of the optimizer's second phase.
func (t *Timing) SlackSum() float64 {
	sum := 0.0
	t.n.Gates(func(g *network.Gate) {
		s := t.Slack(g)
		if s > t.Clock {
			s = t.Clock
		}
		sum += s
	})
	return sum
}

// CriticalPath returns the gates of one critical path, from a primary
// input to the worst primary output.
func (t *Timing) CriticalPath() []*network.Gate {
	var worst *network.Gate
	for _, po := range t.n.Outputs() {
		if worst == nil || t.Arrival(po).Max() > t.Arrival(worst).Max() {
			worst = po
		}
	}
	if worst == nil {
		return nil
	}
	var path []*network.Gate
	g := worst
	for {
		path = append(path, g)
		if g.IsInput() || g.NumFanins() == 0 {
			break
		}
		// Follow the fanin whose pin arrival dominates.
		var best *network.Gate
		bestArr := -inf
		for _, d := range g.Fanins() {
			a := t.Arrival(d).Max() + t.WireDelay(d, g)
			if a > bestArr {
				bestArr = a
				best = d
			}
		}
		g = best
	}
	// Reverse to PI→PO order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
