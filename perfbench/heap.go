package main

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// heapWatch records the live heap at the end of every garbage
// collection cycle: a finalizer on an unreachable sentinel runs once per
// cycle, reads the live heap the cycle marked, and arms a new sentinel.
// Cycles that end while a calibration sample runs are left out: the
// kernel's graph is not the workload's.
type heapWatch struct {
	stopped atomic.Bool
	mu      sync.Mutex
	liveMB  []float64
}

// sentinel holds a pointer so it is never a tiny allocation, whose
// finalizer might not run.
type sentinel struct{ p *int }

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		if w.stopped.Load() {
			return
		}
		if !calibrating.Load() {
			live := float64(readHeap()[1]) / (1 << 20)
			w.mu.Lock()
			w.liveMB = append(w.liveMB, live)
			w.mu.Unlock()
		}
		w.arm()
	})
}

// stop ends the watch and returns the median live heap over the cycles
// seen, and their number.
func (w *heapWatch) stop() (float64, int) {
	w.stopped.Store(true)
	w.mu.Lock()
	defer w.mu.Unlock()
	return quantile(w.liveMB, 0.5), len(w.liveMB)
}
