package eqasm

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/circuit"
	"repro/internal/compiler"
)

// Assemble lowers a scheduled circuit into an eQASM program: gates that
// start on the same cycle and share opcode and parameters are merged into
// one masked operation; mask registers are allocated with reuse; bundle
// pre-intervals encode the schedule's timing. This is the cQASM→eQASM
// back-end pass of §3.1.
//
// The schedule's gates are sorted by cycle, so each bundle is one
// contiguous run of them. The program's operations and mask contents are
// cut from backing arrays sized by the schedule, and its ops share their
// parameter slices with the scheduled gates.
func Assemble(s *compiler.Schedule, p *compiler.Platform) (*Program, error) {
	prog := &Program{Name: "assembled", NumQubits: s.NumQubits}
	salloc := newMaskAlloc[int](NumSRegs)
	talloc := newMaskAlloc[[2]int](NumTRegs)

	cycles, operands, pairCount := 0, 0, 0
	for i := range s.Gates {
		sg := &s.Gates[i]
		if i == 0 || sg.Cycle != s.Gates[i-1].Cycle {
			cycles++
		}
		switch {
		case sg.Gate.Name == circuit.OpMeasureAll:
			operands += s.NumQubits
		case len(sg.Gate.Qubits) == 2:
			pairCount++
		default:
			operands += len(sg.Gate.Qubits)
		}
	}
	prog.Instrs = make([]Instr, 0, 2*cycles+1)
	ops := make([]QOp, 0, len(s.Gates))
	qubits := make([]int, 0, operands)
	pairs := make([][2]int, 0, pairCount)

	// groups are one bundle's distinct (opcode, parameters) operations in
	// order of first appearance; member[i] is the group of run[i].
	type group struct {
		name  string
		twoQ  bool
		first *circuit.Gate
	}
	var groups []group
	var member []int
	prevIssue := 0
	for start := 0; start < len(s.Gates); {
		cycle := s.Gates[start].Cycle
		end := start + 1
		for end < len(s.Gates) && s.Gates[end].Cycle == cycle {
			end++
		}
		run := s.Gates[start:end]
		start = end
		groups, member = groups[:0], member[:0]
		for i := range run {
			g := &run[i].Gate
			name, twoQ, err := opcodeFor(g)
			if err != nil {
				return nil, err
			}
			if len(p.Gates) > 0 && g.IsUnitary() && !p.Supports(g.Name) {
				return nil, fmt.Errorf("eqasm: gate %q is not primitive on platform %s; decompose first", g.Name, p.Name)
			}
			k := slices.IndexFunc(groups, func(gr group) bool {
				return gr.name == name && gr.twoQ == twoQ && sameParams(gr.first, g)
			})
			if k < 0 {
				k = len(groups)
				groups = append(groups, group{name: name, twoQ: twoQ, first: g})
			}
			member = append(member, k)
		}
		opsStart := len(ops)
		for k, gr := range groups {
			op := QOp{Name: gr.name, TwoQ: gr.twoQ, Params: gr.first.Params, Exprs: gr.first.Exprs}
			if gr.twoQ {
				from := len(pairs)
				for i := range run {
					if member[i] == k {
						pairs = append(pairs, [2]int{run[i].Gate.Qubits[0], run[i].Gate.Qubits[1]})
					}
				}
				mask := pairs[from:len(pairs):len(pairs)]
				slices.SortFunc(mask, func(a, b [2]int) int {
					if a[0] != b[0] {
						return a[0] - b[0]
					}
					return a[1] - b[1]
				})
				reg, fresh := talloc.get(mask)
				if fresh {
					prog.Instrs = append(prog.Instrs, SMIT{Reg: reg, Pairs: mask})
				} else {
					pairs = pairs[:from]
				}
				op.Reg = reg
			} else {
				from := len(qubits)
				for i := range run {
					if member[i] != k {
						continue
					}
					g := &run[i].Gate
					if g.Name == circuit.OpMeasureAll {
						for q := 0; q < s.NumQubits; q++ {
							qubits = append(qubits, q)
						}
						continue
					}
					qubits = append(qubits, g.Qubits...)
				}
				mask := qubits[from:len(qubits):len(qubits)]
				slices.Sort(mask)
				reg, fresh := salloc.get(mask)
				if fresh {
					prog.Instrs = append(prog.Instrs, SMIS{Reg: reg, Qubits: mask})
				} else {
					qubits = qubits[:from]
				}
				op.Reg = reg
			}
			ops = append(ops, op)
		}
		prog.Instrs = append(prog.Instrs, Bundle{PreWait: cycle - prevIssue, Ops: ops[opsStart:len(ops):len(ops)]})
		prevIssue = cycle
	}
	// Trailing wait so the program's cycle count matches the makespan.
	if tail := s.Makespan - prevIssue; tail > 0 && len(s.Gates) > 0 {
		prog.Instrs = append(prog.Instrs, QWait{Cycles: tail})
	}
	return prog, nil
}

// opcodeFor maps an IR gate to its eQASM opcode.
func opcodeFor(g *circuit.Gate) (string, bool, error) {
	if g.HasCond {
		// Feed-forward requires the fast conditional-execution path of a
		// richer eQASM profile; this subset targets open-loop sequences.
		return "", false, fmt.Errorf("eqasm: classically-controlled gate %q is not supported by this eQASM subset", g.Name)
	}
	switch g.Name {
	case circuit.OpMeasure, circuit.OpMeasureAll:
		return "measz", false, nil
	case circuit.OpPrepZ:
		return "prepz", false, nil
	case circuit.OpBarrier, circuit.OpWait, circuit.OpDisplay:
		return "", false, fmt.Errorf("eqasm: directive %q must be resolved by the scheduler", g.Name)
	}
	if len(g.Qubits) == 2 {
		return g.Name, true, nil
	}
	if len(g.Qubits) == 1 {
		return g.Name, false, nil
	}
	return "", false, fmt.Errorf("eqasm: cannot encode %d-qubit gate %q", len(g.Qubits), g.Name)
}

// sameParams reports whether two gates may share one masked operation:
// slot for slot, symbolic slots carry the same canonical expression and
// literal slots the same value bit for bit (any two NaNs match). Equal
// placeholder literals never merge distinct expressions.
func sameParams(a, b *circuit.Gate) bool {
	if len(a.Params) != len(b.Params) {
		return false
	}
	for i, x := range a.Params {
		sa, sb := a.Symbolic(i), b.Symbolic(i)
		switch {
		case sa != sb:
			return false
		case sa:
			if a.Exprs[i].String() != b.Exprs[i].String() {
				return false
			}
		case math.Float64bits(x) != math.Float64bits(b.Params[i]) && !(math.IsNaN(x) && math.IsNaN(b.Params[i])):
			return false
		}
	}
	return true
}

// maskAlloc allocates mask registers with content reuse and FIFO
// eviction.
type maskAlloc[T comparable] struct {
	masks [][]T
	set   []bool
	next  int
}

func newMaskAlloc[T comparable](size int) *maskAlloc[T] {
	return &maskAlloc[T]{masks: make([][]T, size), set: make([]bool, size)}
}

// get returns the register holding mask, allocating (fresh=true) if no
// register does. A fresh register keeps mask, which must not change.
func (a *maskAlloc[T]) get(mask []T) (reg int, fresh bool) {
	for r, m := range a.masks {
		if a.set[r] && slices.Equal(m, mask) {
			return r, false
		}
	}
	r := a.next
	a.next = (a.next + 1) % len(a.masks)
	a.masks[r], a.set[r] = mask, true
	return r, true
}
