package network_test

// Equivalence tests for the dense TopoOrder and the copy-on-write
// Snapshot: TopoOrder against the map-and-heap implementation it
// replaced, and every incrementally published snapshot against a
// from-scratch capture of the same network, over a seeded stream of
// resizes, retypes, boundary touches, batches, placement moves and
// structural rewiring.

import (
	"bytes"
	"container/heap"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/blif"
	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/place"
	"repro/internal/rewire"
	"repro/internal/supergate"
)

// refHeap is the container/heap min-heap of gates by ID that TopoOrder
// used before its dense rewrite.
type refHeap []*network.Gate

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].ID() < h[j].ID() }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*network.Gate)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	g := old[len(old)-1]
	*h = old[:len(old)-1]
	return g
}

// referenceTopoOrder is the previous TopoOrder: pending counts in a map,
// ready gates in a refHeap.
func referenceTopoOrder(n *network.Network) []*network.Gate {
	order := make([]*network.Gate, 0, n.NumGates())
	pending := make(map[*network.Gate]int, n.NumGates())
	ready := &refHeap{}
	n.Gates(func(g *network.Gate) {
		if g.NumFanins() == 0 {
			heap.Push(ready, g)
		} else {
			pending[g] = g.NumFanins()
		}
	})
	for ready.Len() > 0 {
		g := heap.Pop(ready).(*network.Gate)
		order = append(order, g)
		for _, s := range g.Fanouts() {
			pending[s]--
			if pending[s] == 0 {
				delete(pending, s)
				heap.Push(ready, s)
			}
		}
	}
	return order
}

// checkTopo compares TopoOrder and ReverseTopoOrder with the reference
// implementation.
func checkTopo(t *testing.T, label string, n *network.Network) {
	t.Helper()
	want := referenceTopoOrder(n)
	if got := n.TopoOrder(); !slices.Equal(got, want) {
		t.Fatalf("%s: TopoOrder differs from the reference (%d vs %d gates)", label, len(got), len(want))
	}
	rev := slices.Clone(want)
	slices.Reverse(rev)
	if got := n.ReverseTopoOrder(); !slices.Equal(got, rev) {
		t.Fatalf("%s: ReverseTopoOrder differs from the reference", label)
	}
}

func TestTopoOrderMatchesReference(t *testing.T) {
	names := []string{"c432", "c3540", "c6288", "s38417"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			n, err := gen.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			checkTopo(t, "generated", n)

			// One rewiring swap per supergate, inverting ones included:
			// fanins move and inverters appear.
			swaps := 0
			for _, sg := range supergate.Extract(n).NonTrivial() {
				if ss := rewire.Enumerate(sg); len(ss) > 0 {
					rewire.Apply(n, ss[rng.Intn(len(ss))])
					swaps++
				}
			}
			if swaps == 0 {
				t.Fatal("no rewiring swaps applied")
			}
			if err := n.Validate(); err != nil {
				t.Fatal(err)
			}
			checkTopo(t, "after swaps", n)

			for i, g := range n.GateSlice() {
				if i%5 == 0 && !g.IsInput() {
					n.InsertInverter(network.Pin{Gate: g, Index: 0})
				}
			}
			checkTopo(t, "after InsertInverter", n)
		})
	}
}

// pinnedView is a snapshot plus a deep copy of what it read when taken.
type pinnedView struct {
	s     *network.Snapshot
	gates []network.SnapGate
}

func pin(s *network.Snapshot) pinnedView {
	p := pinnedView{s: s, gates: make([]network.SnapGate, s.NumGates())}
	for i := range p.gates {
		g := s.Gate(i)
		g.Fanins = slices.Clone(g.Fanins)
		p.gates[i] = g
	}
	return p
}

func snapBLIF(t *testing.T, s *network.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := blif.Write(&buf, s.Net()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dualOf returns the and/or dual of t and whether it has one.
func dualOf(t logic.GateType) (logic.GateType, bool) {
	switch t {
	case logic.And:
		return logic.Or, true
	case logic.Or:
		return logic.And, true
	case logic.Nand:
		return logic.Nor, true
	case logic.Nor:
		return logic.Nand, true
	}
	return t, false
}

// TestSnapshotIncrementalEquivalence drives a seeded mutation stream
// and checks, after every mutation, that the published snapshot equals
// a from-scratch capture (deeply and as BLIF), that one resize copies at
// most two pages, and that views pinned earlier still read what they
// read when they were taken.
func TestSnapshotIncrementalEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		steps int
	}{{"c3540", 200}, {"s38417", 40}}
	if testing.Short() {
		cases = cases[:1]
		cases[0].steps = 60
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := gen.Generate(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			lib := library.Default035()
			place.Place(n, lib, place.Options{Seed: 1, MovesPerCell: 2})
			rng := rand.New(rand.NewSource(5))

			var logicGates []*network.Gate
			refresh := func() {
				logicGates = logicGates[:0]
				n.Gates(func(g *network.Gate) {
					if !g.IsInput() {
						logicGates = append(logicGates, g)
					}
				})
			}
			refresh()
			randGate := func() *network.Gate { return logicGates[rng.Intn(len(logicGates))] }
			resize := func() {
				g := randGate()
				n.SetSize(g, (g.SizeIdx+1+rng.Intn(library.NumSizes-1))%library.NumSizes)
			}
			retype := func() {
				for {
					g := randGate()
					if d, ok := dualOf(g.Type); ok {
						n.SetGateType(g, d)
						return
					}
				}
			}
			touchPin := func() {
				if rng.Intn(2) == 0 {
					ins := n.Inputs()
					n.Touch(ins[rng.Intn(len(ins))])
				} else {
					outs := n.Outputs()
					n.Touch(outs[rng.Intn(len(outs))])
				}
			}
			move := func() {
				g := randGate()
				g.X += 1.5
				g.Y -= 0.5
				n.Touch(g)
			}
			edits := []func(){resize, retype, touchPin, move}

			var pinned []pinnedView
			prev := n.Snapshot()
			for step := 0; step < tc.steps; step++ {
				single := false
				switch k := step % 10; {
				case k < 4:
					resize()
					single = true
				case k == 4:
					retype()
				case k == 5:
					touchPin()
				case k == 6:
					n.BeginBatch()
					for range 16 {
						edits[rng.Intn(len(edits))]()
					}
					n.EndBatch()
				case k == 7:
					move()
					if step%20 == 7 {
						g := randGate()
						n.Rename(g, n.FreshName("renamed"))
					}
				case k == 8:
					// Structural: a rewiring swap adds or removes gates
					// and moves fanins, so the next publish is a full
					// capture.
					sgs := supergate.Extract(n).NonTrivial()
					for _, sg := range sgs[rng.Intn(len(sgs)):] {
						if ss := rewire.Enumerate(sg); len(ss) > 0 {
							rewire.Apply(n, ss[rng.Intn(len(ss))])
							break
						}
					}
					refresh()
				case k == 9:
					inv := n.InsertInverter(network.Pin{Gate: randGate(), Index: 0})
					if step%20 == 19 {
						p := network.Pin{Gate: inv.Fanouts()[0], Index: inv.Fanouts()[0].FaninIndexOf(inv)}
						n.ReplaceFanin(p.Gate, p.Index, inv.Fanin(0))
						n.RemoveGate(inv)
					}
					refresh()
				}

				s := n.Snapshot()
				if s == prev {
					t.Fatalf("step %d: mutation did not publish a new snapshot", step)
				}
				full := n.CaptureFull()
				if !reflect.DeepEqual(s, full) {
					t.Fatalf("step %d: incremental snapshot differs from a full capture", step)
				}
				if !bytes.Equal(snapBLIF(t, s), snapBLIF(t, full)) {
					t.Fatalf("step %d: BLIF of the incremental snapshot differs from a full capture", step)
				}
				if single {
					if unshared := network.NumPages(s) - network.SharedPages(prev, s); unshared > 2 {
						t.Fatalf("step %d: one resize copied %d of %d pages", step, unshared, network.NumPages(s))
					}
				}
				if step%10 == 3 {
					pinned = append(pinned, pin(s))
				}
				if step%10 == 9 {
					for _, p := range pinned {
						if !reflect.DeepEqual(pin(p.s).gates, p.gates) {
							t.Fatalf("step %d: view pinned at epoch %d changed", step, p.s.Epoch())
						}
					}
				}
				prev = s
			}
		})
	}
}
