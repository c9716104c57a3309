package sta

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/network"
)

// TestLevelQueueMatchesSortedReference is the queue's property test:
// random pushes — duplicates, pushes below the current minimum, re-pushes
// after a pop, IDs beyond the pre-sized bound — interleaved with pops must
// pop exactly the (level, ID) minimum a sort over the queued set picks,
// ascending in level for the forward queue and descending for the
// backward one. A popped gate may change level before it is pushed again,
// as the forward sweep's level repair does.
func TestLevelQueueMatchesSortedReference(t *testing.T) {
	for _, desc := range []bool{false, true} {
		t.Run(fmt.Sprintf("desc=%v", desc), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			n := network.New("q")
			gates := make([]*network.Gate, 400)
			levels := make([]int32, len(gates))
			for i := range gates {
				gates[i] = n.AddInput(fmt.Sprintf("g%d", i))
				levels[i] = int32(rng.Intn(50))
			}
			q := levelQueue{desc: desc}
			q.grow(len(gates) / 4)
			queued := map[int]bool{}
			before := func(a, b int) bool {
				if levels[a] != levels[b] {
					return (levels[a] < levels[b]) != desc
				}
				return a < b
			}
			popOne := func(step int) {
				ids := make([]int, 0, len(queued))
				for id := range queued {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return before(ids[i], ids[j]) })
				g := q.pop()
				if g.ID() != ids[0] {
					t.Fatalf("step %d: popped %v (level %d), reference wants %v (level %d)",
						step, g, levels[g.ID()], gates[ids[0]], levels[ids[0]])
				}
				delete(queued, g.ID())
				if rng.Intn(4) == 0 {
					levels[g.ID()] = int32(rng.Intn(50))
				}
			}
			for step := 0; step < 5000; step++ {
				if len(queued) > 0 && rng.Intn(5) < 2 {
					popOne(step)
					continue
				}
				g := gates[rng.Intn(len(gates))]
				q.push(g, levels[g.ID()])
				queued[g.ID()] = true
				if q.Len() != len(queued) {
					t.Fatalf("step %d: queue holds %d entries, reference %d", step, q.Len(), len(queued))
				}
			}
			for step := 0; len(queued) > 0; step++ {
				popOne(step)
			}
			if q.Len() != 0 {
				t.Fatalf("drained queue still holds %d entries", q.Len())
			}
			for id, g := range q.byID {
				if g != nil {
					t.Fatalf("drained queue still references gate %d", id)
				}
			}
		})
	}
}

// TestLevelQueueResetDropsGates checks that an abandoned, non-empty queue
// releases its gate pointers on reset, so a pooled timer keeps none.
func TestLevelQueueResetDropsGates(t *testing.T) {
	n := chain()
	var q levelQueue
	n.Gates(func(g *network.Gate) { q.push(g, 0) })
	q.reset()
	if q.Len() != 0 {
		t.Fatalf("reset queue holds %d entries", q.Len())
	}
	for id, g := range q.byID {
		if g != nil {
			t.Fatalf("reset queue still references gate %d", id)
		}
	}
}

// TestSetLevelOfQueuedGatePanics checks the invariant the queue's
// push-time keys rely on: the timer never repairs the level of a gate
// that is waiting in the forward queue.
func TestSetLevelOfQueuedGatePanics(t *testing.T) {
	n := chain()
	inc := NewIncremental(n, lib(), 0)
	defer inc.Release()
	g := n.FindGate("i2")
	inc.fwdQ.push(g, inc.levelOf(g))
	defer func() {
		if recover() == nil {
			t.Fatal("setLevel on a queued gate did not panic")
		}
		inc.fwdQ.reset()
	}()
	inc.setLevel(g, inc.levelOf(g)+1)
}
