package compiler

import (
	"math"
	"slices"

	"repro/internal/circuit"
)

// FoldRotations merges z-axis rotations separated by gates they commute
// with — a commutation-aware optimisation strictly stronger than the
// peephole rotation merge, which stops at the first intervening gate on
// the same qubit. Commutation is driven by zCommutationTable: an rz
// commutes with every computational-basis-diagonal gate on its qubit
// (z, s, t, rz, cz, cphase, crz and their inverses) and with a
// controlled gate that uses the qubit as a control (cnot, toffoli,
// fredkin), so patterns like
//
//	rz q[0]; cnot q[0], q[1]; rz q[0]
//
// fold into one rotation. Folding runs to a fixpoint together with
// zero-angle removal; the input circuit is not modified (a folded
// rotation gets fresh parameter slices before its angle changes).
func FoldRotations(c *circuit.Circuit) *circuit.Circuit {
	gates := slices.Clone(c.Gates)
	removed := make([]bool, len(gates))
	for i := 0; i < len(gates); i++ {
		if removed[i] || gates[i].Name != "rz" || gates[i].HasCond {
			continue
		}
		q := gates[i].Qubits[0]
	scan:
		for j := i + 1; j < len(gates); j++ {
			if removed[j] {
				continue
			}
			o := gates[j]
			switch o.Name {
			case circuit.OpBarrier, circuit.OpMeasureAll:
				break scan
			}
			if !gateTouches(o, q) {
				continue
			}
			// Conditional gates fire data-dependently; treat them as
			// commutation barriers on their qubits.
			if o.HasCond {
				break
			}
			if o.Name == "rz" && o.Qubits[0] == q {
				var sum *circuit.ParamExpr
				if gates[i].Symbolic(0) || o.Symbolic(0) {
					// Folding symbolic with literal z-rotations keeps a
					// symbolic sum; literals land in the constant term.
					if sum = addExprs(slotExpr(gates[i], 0), slotExpr(o, 0)); sum == nil {
						break
					}
				}
				ownParams(&gates[i])
				if sum != nil {
					setSlot(&gates[i], 0, sum)
				} else {
					gates[i].Params[0] = addAngles(gates[i].Params[0], o.Params[0])
				}
				removed[j] = true
				continue
			}
			if !commutesWithRZ(o, q) {
				break
			}
		}
	}
	out := gates[:0]
	for i, g := range gates {
		if removed[i] {
			continue
		}
		if g.Name == "rz" && !g.HasCond && !g.Symbolic(0) && math.Abs(normalizeAngle(g.Params[0])) < 1e-12 {
			continue
		}
		out = append(out, g)
	}
	return &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, Gates: out}
}

// zCommute describes on which operand positions a unitary gate commutes
// with a z-rotation: either everywhere (the gate is diagonal in the
// computational basis) or on its leading control operands (the gate is
// block-diagonal there — |0⟩⟨0|⊗I + |1⟩⟨1|⊗U, so any z-diagonal phase
// on a control passes through).
type zCommute struct {
	all      bool // diagonal: commutes with rz on every operand
	controls int  // otherwise: the first `controls` operands are controls
}

// zCommutationTable is the gate-commutation table the fold pass consults.
// A gate absent from the table conservatively commutes nowhere. New
// registry gates that are diagonal or control-diagonal extend the fold's
// reach by adding one entry here — no pass logic changes.
var zCommutationTable = map[string]zCommute{
	// Diagonal in the computational basis.
	"i": {all: true}, "z": {all: true},
	"s": {all: true}, "sdag": {all: true},
	"t": {all: true}, "tdag": {all: true},
	"rz": {all: true}, "phase": {all: true},
	"cz": {all: true}, "cphase": {all: true}, "crz": {all: true},
	// Control-diagonal: diagonal on the control operand(s) only.
	"cnot":    {controls: 1},
	"toffoli": {controls: 2},
	"fredkin": {controls: 1},
}

// commutesWithRZ reports whether gate o commutes with an rz on qubit q
// (o is known to touch q), per the commutation table. Non-unitary
// operations never commute here: folding a phase across a measurement
// would change the post-measurement state seen by later gates.
func commutesWithRZ(o circuit.Gate, q int) bool {
	if !o.IsUnitary() {
		return false
	}
	zc, ok := zCommutationTable[o.Name]
	if !ok {
		return false
	}
	if zc.all {
		return true
	}
	for i := 0; i < zc.controls && i < len(o.Qubits); i++ {
		if o.Qubits[i] == q {
			return true
		}
	}
	return false
}

// gateTouches reports whether the gate operates on qubit q.
func gateTouches(g circuit.Gate, q int) bool {
	for _, gq := range g.Qubits {
		if gq == q {
			return true
		}
	}
	return false
}
