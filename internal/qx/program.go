package qx

import "repro/internal/circuit"

// program is a circuit compiled for the optimized or the stabilizer
// engine: an op table in circuit order, in which G is the engine's form
// of a unitary gate, and the list of ops that draw from the PRNG on a
// perfect run.
type program[G any] struct {
	numQubits  int
	ops        []progOp[G]
	draws      []draw
	hasMeasure bool
}

// progOp is one compiled operation. Measure, prep_z, wait, barrier and
// display lower alike on both engines; a unitary carries the engine's
// form of its gate.
type progOp[G any] struct {
	kind    opKind
	gate    G
	qubits  []int
	hasCond bool
	condBit int
	cycles  float64 // opWait
}

// opKind is what a compiled op is to the shot loops.
type opKind uint8

const (
	opGate    opKind = iota // unitary: gate holds the engine's form
	opMeasure               // projective measurement of qubits[0]
	opPrepZ                 // reset qubits[0] to |0>
	opWait                  // explicit idle (decoherence under noise)
	opNop                   // barrier, display
)

// draw is an op that draws from the PRNG on a perfect run: a measure of
// qubit q, or a prep_z of it when prep is set, at index at of its
// program's op table. measure_all lowers to one measure per qubit, so
// every draw touches one qubit.
type draw struct {
	at, q int
	prep  bool
}

// compile lowers every gate of a validated circuit in order, passing
// each unitary to the engine's gateOf.
func compile[G any](c *circuit.Circuit, gateOf func(circuit.Gate) (G, error)) (*program[G], error) {
	p := &program[G]{numQubits: c.NumQubits, ops: make([]progOp[G], 0, len(c.Gates))}
	for _, g := range c.Gates {
		if err := p.lower(g, gateOf); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// lower appends the compiled form of one validated gate, passing a
// unitary to the engine's gateOf. A measure_all becomes one measure per
// qubit in qubit order — the reference engine's measure_all loop.
func (p *program[G]) lower(g circuit.Gate, gateOf func(circuit.Gate) (G, error)) error {
	op := progOp[G]{qubits: g.Qubits, hasCond: g.HasCond, condBit: g.CondBit}
	switch g.Name {
	case circuit.OpMeasureAll:
		qubits := make([]int, p.numQubits)
		for q := range qubits {
			qubits[q] = q
			p.add(progOp[G]{kind: opMeasure, qubits: qubits[q : q+1]})
		}
		return nil
	case circuit.OpMeasure:
		op.kind = opMeasure
	case circuit.OpPrepZ:
		op.kind = opPrepZ
	case circuit.OpWait:
		op.kind = opWait
		if len(g.Params) > 0 {
			op.cycles = g.Params[0]
		}
	case circuit.OpBarrier, circuit.OpDisplay:
		op.kind = opNop
	default:
		gate, err := gateOf(g)
		if err != nil {
			return err
		}
		op.gate = gate
	}
	p.add(op)
	return nil
}

// add appends op, recording it in the draw list when it is a measure
// or a prep_z.
func (p *program[G]) add(op progOp[G]) {
	if op.kind == opMeasure || op.kind == opPrepZ {
		p.draws = append(p.draws, op.draw(len(p.ops)))
		p.hasMeasure = p.hasMeasure || op.kind == opMeasure
	}
	p.ops = append(p.ops, op)
}

// draw returns a measure or prep_z op at index at as a draw.
func (op *progOp[G]) draw(at int) draw {
	return draw{at: at, q: op.qubits[0], prep: op.kind == opPrepZ}
}
