// Epoch-stamped snapshot views: the one-writer/many-reader concurrency
// story for live circuits (DESIGN.md §5d). Every event-layer mutation
// advances the network's epoch counter; Snapshot() captures the current
// structure into an immutable, value-typed view stamped with that epoch.
// Readers pin a *Snapshot and read it freely — it shares no Gate
// pointers with the live network, so a writer mutating concurrently can
// never race a pinned reader. Snapshot() memoizes the last view (the
// same stamp-against-an-epoch trick the batch event buffer and sta's
// gateSet use, lifted from per-gate dedup to whole-network identity), so
// readers arriving between mutations share one allocation.
//
// A view stores its gates in fixed-size pages, and publishing is
// copy-on-write at page granularity. A shape change (a gate added or
// removed, or a fanin rewired) since the memoized view forces a full
// capture: a fresh topological order and fresh fanin index slices. At
// an unchanged shape, the next view reuses the memoized order and every
// fanin slice, reads each gate's scalar fields once, and copies only the
// pages whose fields moved; every other page is shared with the previous
// view and with any older view still pinned. A single resize therefore
// costs O(N) field reads plus one or two page copies, not a full capture.
//
// Snapshot() itself must run on the writer side (or under external
// synchronization with the writer) — it walks live Gate pointers and
// updates the memo. The returned *Snapshot is immutable and safe to
// share across any number of goroutines.
package network

import (
	"math"
	"slices"

	"repro/internal/logic"
)

// SnapGate is one gate of a Snapshot: a value copy of the timing- and
// structure-relevant Gate fields, with fanins encoded as indices into
// the snapshot's own gate slice (topological order) instead of pointers.
type SnapGate struct {
	Name    string
	Type    logic.GateType
	PO      bool
	SizeIdx int
	X, Y    float64
	Placed  bool

	// Fanins holds in-pin drivers in pin order as indices into the
	// owning Snapshot's Gates; every index is less than the gate's own
	// position (the snapshot is stored fanin-first).
	Fanins []int32
}

// A snapshot page holds snapPageSize gates; it is the unit of
// copy-on-write sharing between successive views.
const (
	snapPageBits = 8
	snapPageSize = 1 << snapPageBits
)

// Snapshot is an immutable view of a Network at one mutation epoch.
// Gate i lives at pages[i/snapPageSize][i%snapPageSize]; pages are never
// written after the view is published, so views share them freely.
type Snapshot struct {
	name  string
	epoch uint64
	n     int
	pages [][]SnapGate
}

// Epoch returns the network's mutation epoch. It advances on every
// event-layer mutation (structural edits, SetSize/SetGateType, Touch);
// direct writes to exported Gate fields bypass it, exactly as they
// bypass observers. Two equal epochs on the same network mean no
// event-layer mutation happened in between.
func (n *Network) Epoch() uint64 { return n.epoch }

// Snapshot captures the live gates into an immutable view stamped with
// the current epoch. Calls at an unchanged epoch return the identical
// *Snapshot (pointer-equal), so readers polling an idle network share
// one capture. When no gate was added or removed and no fanin rewired
// since the memoized view, the new view shares that view's order, fanin
// slices and every unchanged page. Must be called on the writer side;
// see the package note at the top of this file.
func (n *Network) Snapshot() *Snapshot {
	if n.snapCache != nil && n.snapEpoch == n.epoch {
		return n.snapCache
	}
	var s *Snapshot
	if n.snapCache != nil && n.snapShape == n.shape {
		s = n.recapture(n.snapCache)
	} else {
		s, n.snapOrder = n.captureFull()
		n.snapShape = n.shape
	}
	n.snapCache, n.snapEpoch = s, n.epoch
	return s
}

// captureFull captures every live gate from scratch and returns the view
// with the topological order it was taken in. Each page is its own
// allocation, so a page replaced by a later view is freed on its own
// once no pinned view holds it; all fanin index slices are carved from
// one backing array, which every view until the next shape change shares.
func (n *Network) captureFull() (*Snapshot, []*Gate) {
	order := n.TopoOrder()
	pos := make([]int32, n.nextID)
	edges := 0
	for i, g := range order {
		pos[g.id] = int32(i)
		edges += len(g.fanins)
	}
	arena := make([]int32, 0, edges)
	pages := make([][]SnapGate, (len(order)+snapPageSize-1)/snapPageSize)
	for p := range pages {
		live := order[p*snapPageSize : min((p+1)*snapPageSize, len(order))]
		page := make([]SnapGate, len(live))
		for i, g := range live {
			var fans []int32
			if len(g.fanins) > 0 {
				lo := len(arena)
				for _, f := range g.fanins {
					arena = append(arena, pos[f.id])
				}
				fans = arena[lo:len(arena):len(arena)]
			}
			page[i] = SnapGate{
				Name: g.name, Type: g.Type, PO: g.PO, SizeIdx: g.SizeIdx,
				X: g.X, Y: g.Y, Placed: g.Placed, Fanins: fans,
			}
		}
		pages[p] = page
	}
	return &Snapshot{name: n.name, epoch: n.epoch, n: len(order), pages: pages}, order
}

// recapture builds the current view from prev, which was captured at the
// current shape in the order n.snapOrder: each page whose gates' scalar
// fields all match is shared, and any other page is copied and updated.
func (n *Network) recapture(prev *Snapshot) *Snapshot {
	s := &Snapshot{name: n.name, epoch: n.epoch, n: prev.n, pages: make([][]SnapGate, len(prev.pages))}
	for p, page := range prev.pages {
		live := n.snapOrder[p*snapPageSize:][:len(page)]
		copied := false
		for i, g := range live {
			sg := &page[i]
			if sg.Name == g.name && sg.Type == g.Type && sg.PO == g.PO &&
				sg.SizeIdx == g.SizeIdx && sg.Placed == g.Placed &&
				math.Float64bits(sg.X) == math.Float64bits(g.X) &&
				math.Float64bits(sg.Y) == math.Float64bits(g.Y) {
				continue
			}
			if !copied {
				page = slices.Clone(page)
				copied = true
				sg = &page[i]
			}
			sg.Name, sg.Type, sg.PO, sg.SizeIdx = g.name, g.Type, g.PO, g.SizeIdx
			sg.X, sg.Y, sg.Placed = g.X, g.Y, g.Placed
		}
		s.pages[p] = page
	}
	return s
}

// Name returns the name of the network the snapshot was taken from.
func (s *Snapshot) Name() string { return s.name }

// Epoch returns the mutation epoch the snapshot was taken at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumGates returns the number of gates in the snapshot.
func (s *Snapshot) NumGates() int { return s.n }

// Gate returns the i'th gate of the snapshot, in topological order.
// The returned value's Fanins slice is owned by the snapshot; callers
// must not mutate it.
func (s *Snapshot) Gate(i int) SnapGate { return *s.at(i) }

func (s *Snapshot) at(i int) *SnapGate {
	return &s.pages[i>>snapPageBits][i&(snapPageSize-1)]
}

// Stale reports whether n has seen an event-layer mutation since the
// snapshot was taken. It is only meaningful for the network the
// snapshot came from.
func (s *Snapshot) Stale(n *Network) bool { return s.epoch != n.epoch }

// Net materializes the snapshot into a fresh, independent Network. The
// construction is deterministic — gates are created in the snapshot's
// stored topological order (TopoOrder order, the same order Clone
// uses), so two materializations of one snapshot are structurally
// byte-identical. Names, types, PO flags, sizes, and placement are all
// preserved.
func (s *Snapshot) Net() *Network {
	c := New(s.name)
	gs := make([]*Gate, s.n)
	for i := range gs {
		sg := s.at(i)
		var g *Gate
		if sg.Type == logic.Input {
			g = c.AddInput(sg.Name)
		} else {
			fanins := make([]*Gate, len(sg.Fanins))
			for j, fi := range sg.Fanins {
				fanins[j] = gs[fi]
			}
			g = c.AddGate(sg.Name, sg.Type, fanins...)
		}
		g.PO = sg.PO
		g.SizeIdx = sg.SizeIdx
		g.X, g.Y, g.Placed = sg.X, sg.Y, sg.Placed
		gs[i] = g
	}
	return c
}
