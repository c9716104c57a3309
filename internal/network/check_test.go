package network

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

// TestTopoOrderFastFallback: creation order is topological for freshly
// built networks (the fast path), and rewiring that breaks it must make
// TopoOrderFast fall back to a correct full sort.
func TestTopoOrderFastFallback(t *testing.T) {
	n := New("fast")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g1 := n.AddGate("g1", logic.Nand, a, b)
	g2 := n.AddGate("g2", logic.Nand, a, b)
	g3 := n.AddGate("g3", logic.Inv, g2)
	n.MarkOutput(g1)
	n.MarkOutput(g3)

	assertTopological := func(order []*Gate) {
		t.Helper()
		if len(order) != n.NumGates() {
			t.Fatalf("order has %d gates, network has %d", len(order), n.NumGates())
		}
		pos := map[*Gate]int{}
		for i, g := range order {
			pos[g] = i
		}
		for _, g := range order {
			for _, f := range g.Fanins() {
				if pos[f] >= pos[g] {
					t.Fatalf("not topological: %s at %d before fanin %s at %d",
						g, pos[g], f, pos[f])
				}
			}
		}
	}
	assertTopological(n.TopoOrderFast())

	// Point the earlier gate g1 at the later gate g2: no cycle, but the
	// creation order is no longer topological.
	n.ReplaceFanin(g1, 0, g2)
	order := n.TopoOrderFast()
	assertTopological(order)
	// The fallback is TopoOrder itself, id-tie-break order included.
	want := n.TopoOrder()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fallback order differs from TopoOrder at %d: %s vs %s",
				i, order[i], want[i])
		}
	}
}

func TestRemoveGateForeignPanics(t *testing.T) {
	n1 := New("n1")
	a1 := n1.AddInput("a")
	n1.AddGate("g1", logic.Inv, a1)

	n2 := New("n2")
	a2 := n2.AddInput("a")
	stray := n2.AddGate("stray", logic.Inv, a2)
	n2.ReplaceFanin(stray, 0, a2) // no-op; keeps stray fanout-free

	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "another network") {
			t.Errorf("RemoveGate on a foreign gate: recover() = %v", r)
		}
	}()
	n1.RemoveGate(stray)
}

// TestLive checks the O(1) liveness test: true for a gate of the network,
// false once it is removed, false for a same-ID gate of another network,
// and false when a gate with the removed gate's name is created again.
func TestLive(t *testing.T) {
	n1 := New("n1")
	a1 := n1.AddInput("a")
	g1 := n1.AddGate("g1", logic.Inv, a1)
	n2 := New("n2")
	a2 := n2.AddInput("a")
	g2 := n2.AddGate("g1", logic.Inv, a2)
	if !n1.Live(a1) || !n1.Live(g1) {
		t.Fatal("live gates reported dead")
	}
	if n1.Live(a2) || n1.Live(g2) {
		t.Fatal("another network's gates reported live")
	}
	n1.RemoveGate(g1)
	if n1.Live(g1) {
		t.Fatal("removed gate reported live")
	}
	again := n1.AddGate("g1", logic.Inv, a1)
	if n1.Live(g1) || !n1.Live(again) {
		t.Fatal("liveness followed the name instead of the gate")
	}
}
