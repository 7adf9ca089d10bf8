// Package eqasm implements the executable quantum instruction set of the
// stack's back end (§3.1): a timed assembly in the style of eQASM
// (Fu et al.), with single-qubit and two-qubit mask registers (SMIS/SMIT),
// explicit waits (QWAIT) and instruction bundles with pre-intervals. A
// second compiler pass lowers a scheduled cQASM circuit into eQASM, taking
// platform timing into account; the micro-architecture executes it with
// nanosecond-precision timing.
package eqasm

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
)

// Register-file sizes, following the published eQASM design.
const (
	NumSRegs = 32 // single-qubit mask registers s0..s31
	NumTRegs = 64 // two-qubit mask registers t0..t63
)

// Instr is one eQASM instruction.
type Instr interface {
	fmt.Stringer
	isInstr()
}

// SMIS sets a single-qubit mask register to a set of qubits.
type SMIS struct {
	Reg    int
	Qubits []int
}

func (SMIS) isInstr() {}

func (i SMIS) String() string {
	parts := make([]string, len(i.Qubits))
	for k, q := range i.Qubits {
		parts[k] = fmt.Sprintf("%d", q)
	}
	return fmt.Sprintf("smis s%d, {%s}", i.Reg, strings.Join(parts, ", "))
}

// SMIT sets a two-qubit mask register to a set of qubit pairs.
type SMIT struct {
	Reg   int
	Pairs [][2]int
}

func (SMIT) isInstr() {}

func (i SMIT) String() string {
	parts := make([]string, len(i.Pairs))
	for k, p := range i.Pairs {
		parts[k] = fmt.Sprintf("(%d, %d)", p[0], p[1])
	}
	return fmt.Sprintf("smit t%d, {%s}", i.Reg, strings.Join(parts, ", "))
}

// QWait idles the quantum pipeline for a number of cycles.
type QWait struct {
	Cycles int
}

func (QWait) isInstr() {}

func (i QWait) String() string { return fmt.Sprintf("qwait %d", i.Cycles) }

// QOp is one quantum operation inside a bundle, applied to a mask
// register.
type QOp struct {
	Name   string // platform opcode: x90, cz, measz, ...
	TwoQ   bool   // true → Reg indexes a T register, else an S register
	Reg    int
	Params []float64 // rotation angle for parametric ops
	// Exprs, when non-nil, runs parallel to Params and marks symbolic
	// slots (same convention as circuit.Gate.Exprs): the op's angle is
	// the expression and Params holds a placeholder until the artefact
	// is bound. Assembly never merges ops with different expressions.
	Exprs []*circuit.ParamExpr
}

// Symbolic reports whether parameter slot i is a symbolic expression.
func (o QOp) Symbolic(i int) bool {
	return i < len(o.Exprs) && !o.Exprs[i].IsConst()
}

func (o QOp) String() string {
	reg := fmt.Sprintf("s%d", o.Reg)
	if o.TwoQ {
		reg = fmt.Sprintf("t%d", o.Reg)
	}
	if len(o.Params) > 0 {
		if o.Symbolic(0) {
			return fmt.Sprintf("%s %s, %s", o.Name, reg, o.Exprs[0].String())
		}
		return fmt.Sprintf("%s %s, %.17g", o.Name, reg, o.Params[0])
	}
	return fmt.Sprintf("%s %s", o.Name, reg)
}

// Bundle issues one or more quantum operations simultaneously, PreWait
// cycles after the previous bundle's issue.
type Bundle struct {
	PreWait int
	Ops     []QOp
}

func (Bundle) isInstr() {}

func (b Bundle) String() string {
	parts := make([]string, len(b.Ops))
	for i, o := range b.Ops {
		parts[i] = o.String()
	}
	return fmt.Sprintf("bs %d %s", b.PreWait, strings.Join(parts, " | "))
}

// Program is an assembled eQASM program.
type Program struct {
	Name      string
	NumQubits int
	Instrs    []Instr
}

// String renders the program as eQASM text.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# eqasm: %s\n", p.Name)
	fmt.Fprintf(&b, "# qubits: %d\n", p.NumQubits)
	for _, in := range p.Instrs {
		b.WriteString(in.String() + "\n")
	}
	return b.String()
}

// Event is one timed quantum operation produced by walking a program: the
// interface between eQASM and the micro-architecture's timing control
// unit.
type Event struct {
	Cycle  int
	Op     string
	Qubits []int // flattened operands; pairs are consecutive
	TwoQ   bool
	Params []float64
}

// Timeline expands the program into cycle-stamped events, resolving mask
// registers. It validates register indices, use-before-set and timing:
// a negative wait or bundle pre-interval is an error, so events come out
// in cycle order.
func (p *Program) Timeline() ([]Event, error) {
	var (
		sregs [NumSRegs][]int
		tregs [NumTRegs][][2]int
		sset  [NumSRegs]bool
		tset  [NumTRegs]bool
	)
	nOps := 0
	for _, in := range p.Instrs {
		if b, ok := in.(Bundle); ok {
			nOps += len(b.Ops)
		}
	}
	events := make([]Event, 0, nOps)
	// Every event's operands are cut from one array, grown as needed.
	operands := make([]int, 0, nOps)
	cycle := 0
	for idx, in := range p.Instrs {
		switch i := in.(type) {
		case SMIS:
			if i.Reg < 0 || i.Reg >= NumSRegs {
				return nil, fmt.Errorf("eqasm: instr %d: s register %d out of range", idx, i.Reg)
			}
			sregs[i.Reg], sset[i.Reg] = i.Qubits, true
		case SMIT:
			if i.Reg < 0 || i.Reg >= NumTRegs {
				return nil, fmt.Errorf("eqasm: instr %d: t register %d out of range", idx, i.Reg)
			}
			tregs[i.Reg], tset[i.Reg] = i.Pairs, true
		case QWait:
			if i.Cycles < 0 {
				return nil, fmt.Errorf("eqasm: instr %d: negative wait", idx)
			}
			cycle += i.Cycles
		case Bundle:
			if i.PreWait < 0 {
				return nil, fmt.Errorf("eqasm: instr %d: negative bundle pre-interval %d", idx, i.PreWait)
			}
			cycle += i.PreWait
			for _, op := range i.Ops {
				from := len(operands)
				if op.TwoQ {
					if op.Reg < 0 || op.Reg >= NumTRegs || !tset[op.Reg] {
						return nil, fmt.Errorf("eqasm: instr %d: t%d used before set", idx, op.Reg)
					}
					for _, pr := range tregs[op.Reg] {
						operands = append(operands, pr[0], pr[1])
					}
				} else {
					if op.Reg < 0 || op.Reg >= NumSRegs || !sset[op.Reg] {
						return nil, fmt.Errorf("eqasm: instr %d: s%d used before set", idx, op.Reg)
					}
					operands = append(operands, sregs[op.Reg]...)
				}
				qs := operands[from:len(operands):len(operands)]
				for _, q := range qs {
					if q < 0 || q >= p.NumQubits {
						return nil, fmt.Errorf("eqasm: instr %d: qubit %d out of range", idx, q)
					}
				}
				events = append(events, Event{Cycle: cycle, Op: op.Name, Qubits: qs, TwoQ: op.TwoQ, Params: op.Params})
			}
		default:
			return nil, fmt.Errorf("eqasm: instr %d: unknown instruction type %T", idx, in)
		}
	}
	return events, nil
}
