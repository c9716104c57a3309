// Boundary conditions: pinned timing at the edges of a network.
//
// The default conventions — inputs arrive at 0, every output is required
// at the clock — do not hold for a block whose inputs are driven late or
// whose outputs are constrained by logic outside it. Bounds pins the two
// quantities such an exterior imposes:
//
//   - PIArrival: the out-pin arrival of selected primary inputs;
//   - PORequired: the required time of selected primary outputs.
//
// ECO sessions set both from their pin_arrival and pin_required edits.
// A nil *Bounds means "default conventions" everywhere; all accessors are
// nil-safe.
package sta

import "repro/internal/network"

// Bounds pins boundary timing conditions for the analysis of a network. The zero value (or a nil pointer) imposes nothing.
type Bounds struct {
	// PIArrival pins the out-pin arrival of primary inputs. Inputs not in
	// the map arrive at 0, as usual.
	PIArrival map[*network.Gate]Edge
	// PORequired pins the exterior required time of primary outputs.
	// Outputs not in the map are required at the clock, as usual. The
	// analyzer still tightens a pinned output's required time through its
	// interior sink arcs, exactly as it does for a clock-pinned output.
	PORequired map[*network.Gate]Edge

	// reqDense is an ID-indexed view of PORequired, built by densify the
	// first time an analysis attaches. requiredOf sits on the per-output
	// lateness rescan, and a dense-ID read beats hashing a gate pointer
	// there. Bounds are frozen once an analysis starts (or re-densified
	// after Invalidate), so the view never goes stale; gates created
	// after densify (IDs past the end) correctly read the default.
	// reqSet marks which reqDense entries are pinned.
	reqDense []Edge
	reqSet   []bool
}

// densify builds the dense view for gate IDs below bound. Calling it
// again with a larger bound rebuilds; with the same or smaller, it is a
// no-op.
func (b *Bounds) densify(bound int) {
	if b == nil || len(b.reqSet) >= bound {
		return
	}
	b.reqDense = make([]Edge, bound)
	b.reqSet = make([]bool, bound)
	for g, r := range b.PORequired {
		if g.ID() < bound {
			b.reqDense[g.ID()] = r
			b.reqSet[g.ID()] = true
		}
	}
}

// Invalidate discards the dense view after the maps were mutated, so
// subsequent reads see the new pins. Bounds are normally frozen for the
// life of an analysis; the one sanctioned mutable use is an ECO session
// pinning boundary timing between incremental updates (rapids.Session),
// which calls Invalidate after every map edit. Reads fall back to the
// maps until the next full analysis re-densifies.
func (b *Bounds) Invalidate() {
	if b == nil {
		return
	}
	b.reqDense = nil
	b.reqSet = nil
}

// arrivalOf returns the pinned arrival of primary input g, or zero.
func (b *Bounds) arrivalOf(g *network.Gate) Edge {
	if b == nil {
		return Edge{}
	}
	return b.PIArrival[g] // zero Edge when absent
}

// requiredOf returns the pinned required time of primary output g, or the
// clock.
func (b *Bounds) requiredOf(g *network.Gate, clock float64) Edge {
	if b != nil {
		if b.reqSet != nil {
			// PORequired is frozen once densified: an out-of-range ID is
			// a gate created after the freeze, which is never pinned.
			if id := g.ID(); id < len(b.reqSet) && b.reqSet[id] {
				return b.reqDense[id]
			}
		} else if r, ok := b.PORequired[g]; ok {
			return r
		}
	}
	return Edge{clock, clock}
}
