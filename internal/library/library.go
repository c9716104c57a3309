// Package library models the standard-cell library of the paper's
// experimental setup (§6): a commercial 0.35 µm library consisting of INV,
// BUF, NAND, NOR, XOR, and XNOR cells with 2–4 inputs and four different
// implementations (drive strengths) per type.
//
// The real library is proprietary, so this package provides a synthetic one
// with the same *form*: per-cell area, per-in-pin input capacitance, and a
// pin-to-pin load-dependent delay model with separate rise and fall
// parameters, d = intrinsic + driveResistance × C_load. Units are ns, pF,
// kΩ (kΩ × pF = ns), and µm².
package library

import (
	"fmt"

	"repro/internal/logic"
)

// NumSizes is the number of implementations per cell type, as in the paper.
const NumSizes = 4

// MaxFanin is the largest cell fanin in the library.
const MaxFanin = 4

// RowHeight is the standard-cell row height in µm used to derive cell
// widths from areas for placement.
const RowHeight = 13.0

// Cell is one implementation (size) of a library gate.
type Cell struct {
	Name  string
	Type  logic.GateType
	Fanin int
	// Size is the implementation index, 0 (weakest/smallest) .. NumSizes-1.
	Size int
	// Drive is the relative drive strength (1, 2, 4, 8).
	Drive float64
	// Area is the cell area in µm².
	Area float64
	// InputCap is the capacitance presented by each in-pin, in pF.
	InputCap float64
	// IntrinsicRise/Fall are the load-independent delay terms in ns.
	IntrinsicRise, IntrinsicFall float64
	// ResRise/Fall are the output drive resistances in kΩ; the
	// load-dependent delay is Res × C_load.
	ResRise, ResFall float64
}

// Width returns the cell's placement width in µm.
func (c *Cell) Width() float64 { return c.Area / RowHeight }

// Delay returns the rise and fall pin-to-pin delays for the given output
// load in pF.
func (c *Cell) Delay(loadPF float64) (rise, fall float64) {
	return c.IntrinsicRise + c.ResRise*loadPF,
		c.IntrinsicFall + c.ResFall*loadPF
}

// MaxDelay returns the worse of the rise and fall delays for the load.
func (c *Cell) MaxDelay(loadPF float64) float64 {
	r, f := c.Delay(loadPF)
	if r > f {
		return r
	}
	return f
}

// numTypes bounds logic.GateType for the dense cell index (None..Input).
const numTypes = int(logic.Input) + 1

// Library is a set of cells indexed by (function, fanin, size). The index
// is a small dense array rather than a map: Cell sits on the optimizers'
// innermost delay-evaluation path (every arrival, required time, and
// hypothetical candidate resolves a cell), and profiling the optimizer
// showed the struct-keyed map hash alone at ~17 % of total CPU.
type Library struct {
	name  string
	cells [numTypes][MaxFanin + 1][NumSizes]*Cell
}

// Name returns the library name.
func (l *Library) Name() string { return l.name }

// Supports reports whether the library has a cell with the given function
// and fanin.
func (l *Library) Supports(t logic.GateType, fanin int) bool {
	return int(t) < numTypes && fanin >= 0 && fanin <= MaxFanin &&
		l.cells[t][fanin][0] != nil
}

// Cell returns the implementation with the given size index, or an error if
// the (type, fanin, size) triple does not exist.
func (l *Library) Cell(t logic.GateType, fanin, size int) (*Cell, error) {
	if int(t) >= numTypes || fanin < 0 || fanin > MaxFanin || l.cells[t][fanin][0] == nil {
		return nil, fmt.Errorf("library: no %s cell with %d inputs", t, fanin)
	}
	if size < 0 || size >= NumSizes {
		return nil, fmt.Errorf("library: size %d out of range [0,%d)", size, NumSizes)
	}
	return l.cells[t][fanin][size], nil
}

// MustCell is Cell but panics on error; for callers that have already
// validated the netlist against the library.
func (l *Library) MustCell(t logic.GateType, fanin, size int) *Cell {
	c, err := l.Cell(t, fanin, size)
	if err != nil {
		panic(err)
	}
	return c
}

// Types returns the gate functions present in the library.
func (l *Library) Types() []logic.GateType {
	seen := make(map[logic.GateType]bool)
	var out []logic.GateType
	for _, t := range []logic.GateType{logic.Inv, logic.Buf, logic.Nand,
		logic.Nor, logic.Xor, logic.Xnor, logic.And, logic.Or} {
		for f := 1; f <= MaxFanin; f++ {
			if l.Supports(t, f) && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// drive strengths of the four implementations.
var drives = [NumSizes]float64{1, 2, 4, 8}

type proto struct {
	t          logic.GateType
	fanin      int
	baseArea   float64
	baseCap    float64
	intrRise   float64
	intrFall   float64
	baseRes    float64
	riseFactor float64 // pull-up vs nominal resistance
	fallFactor float64 // pull-down vs nominal resistance
}

func (p proto) build() [NumSizes]*Cell {
	var impls [NumSizes]*Cell
	for s := 0; s < NumSizes; s++ {
		d := drives[s]
		impls[s] = &Cell{
			Name:          fmt.Sprintf("%s%dX%d", p.t, p.fanin, int(d)),
			Type:          p.t,
			Fanin:         p.fanin,
			Size:          s,
			Drive:         d,
			Area:          p.baseArea * (0.5 + 0.5*d),
			InputCap:      p.baseCap * d,
			IntrinsicRise: p.intrRise,
			IntrinsicFall: p.intrFall,
			ResRise:       p.baseRes * p.riseFactor / d,
			ResFall:       p.baseRes * p.fallFactor / d,
		}
	}
	return impls
}

// Default035 returns the synthetic 0.35 µm-flavoured library used by all
// experiments: INV and BUF plus NAND/NOR/XOR/XNOR with 2–4 inputs, four
// drive strengths each. The numbers are representative of a 0.35 µm
// process (input caps of a few fF, drive resistances of a few kΩ,
// per-stage delays of a few hundred ps under typical loads); NAND cells
// pull up slightly slower, NOR cells slightly faster up than down, XOR
// family is slowest and most capacitive.
func Default035() *Library {
	l := &Library{name: "synth035"}
	add := func(p proto) { l.cells[p.t][p.fanin] = p.build() }

	add(proto{logic.Inv, 1, 12, 0.004, 0.030, 0.025, 8.0, 1.05, 0.95})
	add(proto{logic.Buf, 1, 18, 0.003, 0.065, 0.060, 7.5, 1.00, 1.00})
	for f := 2; f <= MaxFanin; f++ {
		ff := float64(f)
		add(proto{logic.Nand, f, 10 + 6*ff, 0.004 + 0.0006*ff,
			0.030 + 0.012*ff, 0.026 + 0.010*ff, 8.0 + 0.5*ff, 1.15, 0.85})
		add(proto{logic.Nor, f, 11 + 7*ff, 0.0042 + 0.0007*ff,
			0.034 + 0.015*ff, 0.028 + 0.011*ff, 8.5 + 0.8*ff, 0.90, 1.20})
		add(proto{logic.Xor, f, 20 + 10*ff, 0.007 + 0.0008*ff,
			0.060 + 0.020*ff, 0.058 + 0.019*ff, 10.0 + 0.6*ff, 1.02, 0.98})
		add(proto{logic.Xnor, f, 20 + 10*ff, 0.007 + 0.0008*ff,
			0.062 + 0.020*ff, 0.060 + 0.019*ff, 10.0 + 0.6*ff, 1.02, 0.98})
	}
	return l
}
