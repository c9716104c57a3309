package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Layer is the part of
// Name before the first dot ("place.place" belongs to layer "place");
// the benchmark's own operation spans use layer "bench". Spans of one
// workload operation share Op.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 for an operation's root span
	Op     int       `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Ref links a span recorded inside the server (journal appends,
	// store calls) to its job: the job id, or a cache-key prefix.
	Ref string `json:"ref,omitempty"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory; write dumps them when the run ends. A
// nil *recorder records nothing, so untraced runs pay one nil check per
// call site.
type recorder struct {
	mu    sync.Mutex
	spans []span
	ops   int
}

// newOp starts a workload operation and returns its id.
func (r *recorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// add records a finished span and returns its id.
func (r *recorder) add(op, parent int, name string, start, end time.Time, ref string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end, Ref: ref})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write saves the spans as JSON lines to path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// split is the per-layer self time of a set of operations: a span's
// self time is its duration minus the durations of its children, and a
// layer's self time is the sum over its spans. Root spans (layer
// "bench") hold the benchmark's own time between layer calls.
type split struct {
	self     map[string]time.Duration
	coverage float64 // lowest per-operation share of wall covered by layer self time
}

// selfTimes computes the split over spans. Children must nest inside
// their parent and not overlap one another.
func selfTimes(spans []span) split {
	childSum := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	sp := split{self: map[string]time.Duration{}, coverage: 1}
	benchSelf := map[int]time.Duration{}
	opWall := map[int]time.Duration{}
	for _, s := range spans {
		self := s.dur() - childSum[s.ID]
		if self < 0 {
			self = 0
		}
		sp.self[s.layer()] += self
		if s.Parent == 0 {
			opWall[s.Op] += s.dur()
			benchSelf[s.Op] += self
		}
	}
	for op, w := range opWall {
		if w > 0 {
			if c := 1 - float64(benchSelf[op])/float64(w); c < sp.coverage {
				sp.coverage = c
			}
		}
	}
	return sp
}

// layers lists the layer names the split reports, in output order.
var layers = []string{"bench", "blif", "place", "sta", "opt", "sim", "session", "http", "server", "journal", "store"}

// emitSplit stores the split's self times per operation as self.<layer>_s.
func emitSplit(m map[string]float64, sp split, ops int) {
	if ops <= 0 {
		return
	}
	for _, l := range layers {
		m["self."+l+"_s"] = sp.self[l].Seconds() / float64(ops)
	}
	m["trace.coverage_pct"] = 100 * sp.coverage
}

// setTimes sets the interval of a span recorded before it ended.
func (r *recorder) setTimes(id int, start, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Start, r.spans[id-1].End = start, end
}

// reparent attaches a span recorded outside any operation to one.
func (r *recorder) reparent(id, op, parent int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Op, r.spans[id-1].Parent = op, parent
}
