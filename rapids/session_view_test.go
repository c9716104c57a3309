package rapids

// Copy-on-write view tests (DESIGN.md §5d): every view a session
// publishes must read exactly what a from-scratch capture of the live
// circuit reads, a view pinned earlier must keep reading what it read
// when it was published, and a Delta and its view must share no slice.
// The from-scratch reference is a Clone of the live network: a fresh
// network has no memoized view, so its first Snapshot is always a full
// capture, and its creation order is the live TopoOrder.

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/blif"
	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
)

// pinnedTimingView is a view plus deep copies of what it read when it
// was published.
type pinnedTimingView struct {
	v     *TimingView
	gates []network.SnapGate
	path  []PathStage
	blif  []byte
}

func snapGates(s *network.Snapshot) []network.SnapGate {
	gs := make([]network.SnapGate, s.NumGates())
	for i := range gs {
		g := s.Gate(i)
		g.Fanins = slices.Clone(g.Fanins)
		gs[i] = g
	}
	return gs
}

func timingViewBLIF(t *testing.T, v *TimingView) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := v.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkViewFresh compares the session's current view with a full
// capture of a clone of the live network, deeply and as BLIF.
func checkViewFresh(t *testing.T, s *Session, step int) {
	t.Helper()
	v := s.View()
	if v.Epoch != s.c.net.Epoch() || v.snap.Epoch() != v.Epoch {
		t.Fatalf("step %d: view epoch %d/%d, network at %d", step, v.Epoch, v.snap.Epoch(), s.c.net.Epoch())
	}
	clone, _ := s.c.net.Clone()
	full := clone.Snapshot()
	if v.snap.Name() != full.Name() || !reflect.DeepEqual(snapGates(v.snap), snapGates(full)) {
		t.Fatalf("step %d: published view differs from a full capture", step)
	}
	var want bytes.Buffer
	if err := blif.Write(&want, clone); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(timingViewBLIF(t, v), want.Bytes()) {
		t.Fatalf("step %d: view BLIF differs from the live network's", step)
	}
}

// randomEdits returns k edits on distinct gates of the live circuit:
// resizes, retypes to the and/or dual, and boundary pins.
func randomEdits(c *Circuit, rng *rand.Rand, k int) []Edit {
	var logicGates, ins, outs []*network.Gate
	c.net.Gates(func(g *network.Gate) {
		if g.IsInput() {
			ins = append(ins, g)
		} else {
			logicGates = append(logicGates, g)
		}
		if g.PO {
			outs = append(outs, g)
		}
	})
	used := map[string]bool{}
	var edits []Edit
	for len(edits) < k {
		var e Edit
		switch rng.Intn(5) {
		case 0, 1:
			g := logicGates[rng.Intn(len(logicGates))]
			size := (g.SizeIdx + 1 + rng.Intn(library.NumSizes-1)) % library.NumSizes
			if _, err := c.lib.Cell(g.Type, g.NumFanins(), size); err != nil {
				continue
			}
			e = Edit{Kind: EditResize, Gate: g.Name(), Size: size}
		case 2:
			g := logicGates[rng.Intn(len(logicGates))]
			var dual logic.GateType
			switch g.Type {
			case logic.And:
				dual = logic.Or
			case logic.Or:
				dual = logic.And
			case logic.Nand:
				dual = logic.Nor
			case logic.Nor:
				dual = logic.Nand
			default:
				continue
			}
			if _, err := c.lib.Cell(dual, g.NumFanins(), g.SizeIdx); err != nil {
				continue
			}
			e = Edit{Kind: EditRetype, Gate: g.Name(), GateType: dual.String()}
		case 3:
			e = Edit{Kind: EditPinArrival, Gate: ins[rng.Intn(len(ins))].Name(), TimeNS: rng.Float64()}
		case 4:
			e = Edit{Kind: EditPinRequired, Gate: outs[rng.Intn(len(outs))].Name(), TimeNS: 5 + 10*rng.Float64()}
		}
		if used[e.Gate] {
			continue
		}
		used[e.Gate] = true
		edits = append(edits, e)
	}
	return edits
}

// TestSessionViewsMatchFullCapture runs a seeded session mixing single
// edits, 16-edit batches and Reoptimize (which adds and removes gates,
// so its publish is a full capture) and checks every published view.
func TestSessionViewsMatchFullCapture(t *testing.T) {
	cases := []struct {
		bench string
		steps int
	}{{"c3540", 120}, {"s38417", 40}}
	if testing.Short() {
		cases = cases[:1]
		cases[0].steps = 40
	}
	for _, tc := range cases {
		t.Run(tc.bench, func(t *testing.T) {
			c, err := Generate(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			c.Place(PlaceSeed(3), PlaceMoves(5))
			s, err := c.BeginSession(context.Background(), WithStrategy(GsgGS), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(9))
			checkViewFresh(t, s, -1)

			var pinned []pinnedTimingView
			reopts := 0
			for step := 0; step < tc.steps; step++ {
				var d *Delta
				switch {
				case step%20 == 19:
					d, err = s.Reoptimize(context.Background())
					reopts++
				case step%10 == 4:
					d, err = s.Apply(randomEdits(c, rng, 16)...)
				default:
					d, err = s.Apply(randomEdits(c, rng, 1)...)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkViewFresh(t, s, step)

				v := s.View()
				if !reflect.DeepEqual(v.CriticalPath, d.CriticalPath) {
					t.Fatalf("step %d: view and Delta report different critical paths", step)
				}
				if len(d.CriticalPath) > 0 && &v.CriticalPath[0] == &d.CriticalPath[0] {
					t.Fatalf("step %d: view shares its critical path slice with the Delta", step)
				}
				if step%10 == 0 {
					pinned = append(pinned, pinnedTimingView{
						v: v, gates: snapGates(v.snap),
						path: slices.Clone(v.CriticalPath), blif: timingViewBLIF(t, v),
					})
					// The caller owns its Delta: scribbling on it must
					// not reach the published view.
					for i := range d.CriticalPath {
						d.CriticalPath[i].Gate = "scribbled"
					}
				}
				if step%10 == 9 {
					for _, p := range pinned {
						if !reflect.DeepEqual(snapGates(p.v.snap), p.gates) ||
							!reflect.DeepEqual(p.v.CriticalPath, p.path) ||
							!bytes.Equal(timingViewBLIF(t, p.v), p.blif) {
							t.Fatalf("step %d: view pinned at seq %d changed", step, p.v.Seq)
						}
					}
				}
			}
			if reopts == 0 {
				t.Fatal("stream ran no Reoptimize")
			}
		})
	}
}
