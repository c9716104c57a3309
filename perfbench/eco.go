package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/rapids"
)

// Shape of the eco edit stream: every batchEvery-th operation is a
// batchSize-edit batch, every reoptEvery-th a Reoptimize, and the rest
// single edits. The reader takes a view every viewEvery.
const (
	batchEvery = 10
	batchSize  = 16
	reoptEvery = 100
	viewEvery  = 200 * time.Millisecond
)

// ecoSetup is a placed circuit with an open session.
type ecoSetup struct {
	c    *rapids.Circuit
	sess *rapids.Session
}

// runEco is the eco workload: one writer streams seeded edits into a
// session on s38417 while a reader takes snapshot views beside it.
func runEco(cfg config, rec *recorder) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(cfg.seed))
	name := "s38417"
	if cfg.quick {
		name = "c432"
	}
	placeSeed := 1 + rng.Int63n(1<<30)
	var loads, begins []float64
	st, setup, err := medianSetup(setupRepeats(cfg), o.cal, func() (*ecoSetup, error) {
		text, err := blifText(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		c, err := rapids.LoadReader(bytes.NewReader(text), rapids.FormatBLIF, name)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		c.Place(rapids.PlaceSeed(placeSeed), rapids.PlaceMoves(30))
		t2 := time.Now()
		sess, err := c.BeginSession(context.Background(), rapids.WithStrategy(rapids.GsgGS))
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		loads = append(loads, t1.Sub(t0).Seconds())
		begins = append(begins, t3.Sub(t2).Seconds())
		return &ecoSetup{c: c, sess: sess}, nil
	}, func(s *ecoSetup) { s.sess.Close() })
	if err != nil {
		return nil, err
	}
	o.m["setup_s"] = setup
	o.m["blif.load_s"] = quantile(loads, 0.5)
	o.m["session.begin_s"] = quantile(begins, 0.5)

	gen := newEditGen(st.c.Network(), rng)

	// The reader: a fixed schedule of View + WriteBLIF beside the writer.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var views []time.Duration
	var viewErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(viewEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			t0 := time.Now()
			if err := st.sess.View().WriteBLIF(io.Discard); err != nil && viewErr == nil {
				viewErr = err
			}
			views = append(views, time.Since(t0))
		}
	}()

	var apply, batch, reopt []float64
	var retime, applyWall time.Duration // traced edit operations
	var touched, slacks, fallbacks, committed, tracedOps int
	var tracedApply []float64
	var untracedApply []float64
	rt := startTimed()
	start := time.Now()
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	deadline := start.Add(seconds)
	ops := 0
	var lastCal time.Time
	for ops == 0 || time.Now().Before(deadline) {
		if time.Since(lastCal) >= calEvery {
			o.cal.sample()
			lastCal = time.Now()
		}
		ops++
		// A traced run traces every other block of batchEvery
		// operations; the untraced ones give the tracing overhead.
		traced := rec != nil && (ops/batchEvery)%2 == 0
		var r *recorder
		if traced {
			r = rec
			tracedOps++
		}
		op := r.newOp()
		begin := time.Now() // the operation, edit generation included
		kind := "apply"
		var edits []rapids.Edit
		switch {
		case ops%reoptEvery == 0:
			kind = "reopt"
		case ops%batchEvery == batchEvery/2:
			kind = "batch"
			edits = gen.batch(batchSize)
		default:
			edits = gen.batch(1)
		}
		t0 := time.Now()
		var d *rapids.Delta
		if kind == "reopt" {
			d, err = st.sess.Reoptimize(context.Background())
		} else {
			d, err = st.sess.Apply(edits...)
		}
		t1 := time.Now()
		if !o.check(err == nil, "%s %v: %v", kind, edits, err) {
			continue
		}
		wall := t1.Sub(t0)
		switch kind {
		case "apply":
			apply = append(apply, ms(wall))
			if traced {
				tracedApply = append(tracedApply, ms(wall))
			} else {
				untracedApply = append(untracedApply, ms(wall))
			}
		case "batch":
			batch = append(batch, ms(wall))
		case "reopt":
			reopt = append(reopt, ms(wall))
			gen.refresh()
		}
		if traced {
			// Delta.Elapsed runs from the first mutation to the built
			// Delta: the edits themselves, the incremental timer's
			// update, the critical path, the slack diff and its sort.
			// The public boundary cannot split the timer from the
			// Delta building, so the span belongs to the session
			// layer. Its place inside the call is not visible either;
			// it is drawn ending where the call returns.
			child := "session.mutate_retime"
			if kind == "reopt" {
				child = "opt.reoptimize" // the optimizer pass, then the same retime
				committed += d.Swaps + d.Resizes
			} else {
				retime += d.Elapsed
				applyWall += wall
			}
			touched += d.TouchedGates
			slacks += len(d.ChangedSlacks)
			if d.FullReanalysis {
				fallbacks++
			}
			root := r.add(op, 0, "bench."+kind, begin, time.Now(), "")
			call := r.add(op, root, "session."+kind, t0, t1, "")
			r.add(op, call, child, t1.Add(-d.Elapsed), t1, "")
		}
	}
	elapsed := time.Since(start)
	speed := o.emitTimed(rt, start, elapsed, ops)
	close(stop)
	wg.Wait()
	o.check(viewErr == nil, "view: %v", viewErr)

	t0 := time.Now()
	sr, err := st.sess.Commit()
	commit := time.Since(t0)
	if o.check(err == nil, "commit: %v", err) {
		perr := checkParity(sr.FinalDelayNS, st.c.DelayNS())
		o.check(perr == nil, "commit: %v", perr)
	}

	o.m["op_ms"] = quantile(apply, 0.5) * speed
	if rec != nil {
		o.m["apply_p50_ms"] = quantile(apply, 0.5)
		o.m["apply_p99_ms"] = quantile(apply, 0.99)
		o.m["batch_p50_ms"] = quantile(batch, 0.5)
		o.m["reopt_p50_ms"] = quantile(reopt, 0.5)
		o.m["session.commit_s"] = commit.Seconds()
		var vs []float64
		for _, v := range views {
			vs = append(vs, v.Seconds())
		}
		o.m["session.view_s"] = mean(vs)
		o.m["session.views"] = float64(len(views))
		if tracedOps > 0 {
			sp := selfTimes(rec.snapshot())
			emitSplit(o.m, sp, tracedOps)
			n := float64(tracedOps)
			o.m["session.apply_s"] = applyWall.Seconds() / n
			o.m["session.retime_s"] = retime.Seconds() / n
			o.m["session.delta_s"] = (applyWall - retime).Seconds() / n
			o.m["session.touched_gates"] = float64(touched) / n
			o.m["session.changed_slacks"] = float64(slacks) / n
			o.m["session.full_fallbacks"] = float64(fallbacks)
			o.m["opt.committed"] = float64(committed)
			if u := quantile(untracedApply, 0.5); u > 0 {
				o.m["trace.overhead_pct"] = 100 * (quantile(tracedApply, 0.5)/u - 1)
			}
		}
	}
	return o, nil
}

// editGen draws valid edits against the live network: resizes to a
// different implementation, and retypes between a type and its
// complement (AND/NAND, OR/NOR, XOR/XNOR, INV/BUF) where the library
// has the cell.
type editGen struct {
	n     *network.Network
	lib   *library.Library
	rng   *rand.Rand
	gates []*network.Gate
}

func newEditGen(n *network.Network, rng *rand.Rand) *editGen {
	g := &editGen{n: n, lib: library.Default035(), rng: rng}
	g.refresh()
	return g
}

// refresh re-reads the gate list; optimizer passes add and remove
// inverters.
func (g *editGen) refresh() {
	g.gates = g.gates[:0]
	g.n.Gates(func(x *network.Gate) {
		if !x.IsInput() {
			g.gates = append(g.gates, x)
		}
	})
}

var complement = map[logic.GateType]logic.GateType{
	logic.And: logic.Nand, logic.Nand: logic.And,
	logic.Or: logic.Nor, logic.Nor: logic.Or,
	logic.Xor: logic.Xnor, logic.Xnor: logic.Xor,
	logic.Inv: logic.Buf, logic.Buf: logic.Inv,
}

// batch draws n edits on distinct gates.
func (g *editGen) batch(n int) []rapids.Edit {
	edits := make([]rapids.Edit, 0, n)
	used := map[*network.Gate]bool{}
	for len(edits) < n {
		x := g.gates[g.rng.Intn(len(g.gates))]
		if used[x] {
			continue
		}
		used[x] = true
		if nt, ok := complement[x.Type]; ok && g.rng.Intn(10) < 3 {
			if _, err := g.lib.Cell(nt, x.NumFanins(), x.SizeIdx); err == nil {
				edits = append(edits, rapids.Edit{Kind: rapids.EditRetype, Gate: x.Name(), GateType: nt.String()})
				continue
			}
		}
		size := (x.SizeIdx + 1 + g.rng.Intn(library.NumSizes-1)) % library.NumSizes
		edits = append(edits, rapids.Edit{Kind: rapids.EditResize, Gate: x.Name(), Size: size})
	}
	return edits
}
