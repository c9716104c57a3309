package main

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// The host is a shared virtual machine whose speed drifts: the same
// flow pass has taken from 8 s to 13 s in runs minutes apart, in CPU
// time as well as in wall time. A fixed reference kernel, run between
// the workload's operations, measures that drift, and the end-to-end
// times are reported at the speed the kernel had on the reference host
// (README.md, "Host-speed normalisation").
//
// The kernel is the benchmark's own code, not the program's, so no
// change to the program can speed it up. It does what the program's hot
// paths do: it copies a netlist-shaped graph of s38417's size into fresh
// pointer-linked allocations (as a snapshot or a clone does) and
// propagates arrival times over it in topological order (as timing
// analysis does), leaving the copy as garbage for the collector.

const (
	calNodes = 1 << 14
	// calReps kernel calls make one sample.
	calReps = 6
	// calRefNS is the time of one sample on the reference host named in
	// README.md in the calmest period seen.
	calRefNS = 14.0e6
	// calEvery is how often eco takes a sample.
	calEvery = 500 * time.Millisecond
	// calBurst samples make one burst.
	calBurst = 4
)

// calNode is one node of the kernel's graph copy.
type calNode struct {
	in    []*calNode
	delay float64
	at    float64
}

// calibrator runs the kernel and keeps its samples.
type calibrator struct {
	fanin   [][]int32 // the fixed graph: fanins of each node, in topological order
	delay   []float64
	samples []calSample
	sink    float64
}

// calSample is one timing of the kernel: when it ended, how long it
// took with the collection before it and how many bytes it allocated,
// and the host speed it gives (the reference time over the kernel's
// time).
type calSample struct {
	at    time.Time
	took  time.Duration
	alloc uint64
	speed float64
}

// newCalibrator builds the kernel's fixed graph: mostly local fanins
// with some long edges, like a placed netlist.
func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(7))
	c := &calibrator{fanin: make([][]int32, calNodes), delay: make([]float64, calNodes)}
	for i := range c.fanin {
		c.delay[i] = 0.05 + rng.Float64()
		if i == 0 {
			continue
		}
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			var f int
			if rng.Intn(4) == 0 {
				f = rng.Intn(i)
			} else {
				f = i - 1 - rng.Intn(min(i, 64))
			}
			c.fanin[i] = append(c.fanin[i], int32(f))
		}
	}
	return c
}

// kernel copies the graph and propagates arrival times over the copy.
func (c *calibrator) kernel() {
	nodes := make([]*calNode, len(c.fanin))
	for i, fi := range c.fanin {
		n := &calNode{delay: c.delay[i], in: make([]*calNode, len(fi))}
		for j, f := range fi {
			n.in[j] = nodes[f]
		}
		nodes[i] = n
	}
	for pass := 0; pass < 4; pass++ {
		for _, n := range nodes {
			at := 0.0
			for _, f := range n.in {
				if f.at > at {
					at = f.at
				}
			}
			n.at = at + n.delay
		}
	}
	c.sink += nodes[len(nodes)-1].at
}

// calibrating is set while a sample runs.
var calibrating atomic.Bool

// sample times calReps kernel calls and records the host speed. A
// garbage collection first clears away the workload's garbage, so the
// kernel neither shares the processors with a collection cycle nor pays
// for one with assists.
func (c *calibrator) sample() {
	calibrating.Store(true)
	defer calibrating.Store(false)
	begin := time.Now()
	runtime.GC()
	before := readHeap()
	t0 := time.Now()
	for i := 0; i < calReps; i++ {
		c.kernel()
	}
	end := time.Now()
	after := readHeap()
	c.samples = append(c.samples, calSample{
		at:    end,
		took:  end.Sub(begin),
		alloc: after[0] - before[0],
		speed: calRefNS / float64(end.Sub(t0)),
	})
}

// burst takes calBurst samples.
func (c *calibrator) burst() {
	for i := 0; i < calBurst; i++ {
		c.sample()
	}
}

// readHeap reads the bytes allocated so far and the live heap.
func readHeap() [2]uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	var v [2]uint64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			v[i] = s[i].Value.Uint64()
		}
	}
	return v
}

// calSummary sums up the samples of a timed section.
type calSummary struct {
	speed float64       // median
	took  time.Duration // total
	alloc uint64        // total
}

// since sums up the samples taken since t.
func (c *calibrator) since(t time.Time) calSummary {
	var speeds []float64
	sum := calSummary{speed: 1}
	for _, s := range c.samples {
		if !s.at.Before(t) {
			speeds = append(speeds, s.speed)
			sum.took += s.took
			sum.alloc += s.alloc
		}
	}
	if len(speeds) > 0 {
		sum.speed = quantile(speeds, 0.5)
	}
	return sum
}
