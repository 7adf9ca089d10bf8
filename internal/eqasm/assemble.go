package eqasm

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/compiler"
)

// Assemble lowers a scheduled circuit into an eQASM program: gates that
// start on the same cycle and share opcode and parameters are merged into
// one masked operation; mask registers are allocated with reuse; bundle
// pre-intervals encode the schedule's timing. This is the cQASM→eQASM
// back-end pass of §3.1.
func Assemble(s *compiler.Schedule, p *compiler.Platform) (*Program, error) {
	prog := &Program{Name: "assembled", NumQubits: s.NumQubits}
	salloc := newMaskAlloc(NumSRegs)
	talloc := newMaskAlloc(NumTRegs)

	cycles := s.Cycles()
	bundles := s.Bundles()
	prevIssue := 0
	for ci, cycle := range cycles {
		// Group this cycle's gates by opcode+params.
		type groupKey struct {
			name   string
			params string
			twoQ   bool
		}
		groups := map[groupKey][]circuit.Gate{}
		var order []groupKey
		for _, sg := range bundles[cycle] {
			g := sg.Gate
			name, twoQ, err := opcodeFor(g)
			if err != nil {
				return nil, err
			}
			if len(p.Gates) > 0 && g.IsUnitary() && !p.Supports(g.Name) {
				return nil, fmt.Errorf("eqasm: gate %q is not primitive on platform %s; decompose first", g.Name, p.Name)
			}
			key := groupKey{name: name, params: gateParamsKey(g), twoQ: twoQ}
			if _, seen := groups[key]; !seen {
				order = append(order, key)
			}
			groups[key] = append(groups[key], g)
		}
		if len(order) == 0 {
			continue
		}
		var ops []QOp
		for _, key := range order {
			gs := groups[key]
			if key.twoQ {
				pairs := make([][2]int, len(gs))
				for i, g := range gs {
					pairs[i] = [2]int{g.Qubits[0], g.Qubits[1]}
				}
				sort.Slice(pairs, func(a, b int) bool {
					if pairs[a][0] != pairs[b][0] {
						return pairs[a][0] < pairs[b][0]
					}
					return pairs[a][1] < pairs[b][1]
				})
				reg, fresh := talloc.get(pairsKey(pairs))
				if fresh {
					prog.Instrs = append(prog.Instrs, SMIT{Reg: reg, Pairs: pairs})
				}
				ops = append(ops, QOp{Name: key.name, TwoQ: true, Reg: reg, Params: gs[0].Params, Exprs: gs[0].Exprs})
			} else {
				var qubits []int
				for _, g := range gs {
					if g.Name == circuit.OpMeasureAll {
						for q := 0; q < s.NumQubits; q++ {
							qubits = append(qubits, q)
						}
						continue
					}
					qubits = append(qubits, g.Qubits...)
				}
				sort.Ints(qubits)
				reg, fresh := salloc.get(qubitsKey(qubits))
				if fresh {
					prog.Instrs = append(prog.Instrs, SMIS{Reg: reg, Qubits: qubits})
				}
				ops = append(ops, QOp{Name: key.name, TwoQ: false, Reg: reg, Params: gs[0].Params, Exprs: gs[0].Exprs})
			}
		}
		pre := cycle - prevIssue
		if ci == 0 {
			pre = cycle
		}
		prog.Instrs = append(prog.Instrs, Bundle{PreWait: pre, Ops: ops})
		prevIssue = cycle
	}
	// Trailing wait so the program's cycle count matches the makespan.
	if tail := s.Makespan - prevIssue; tail > 0 && len(cycles) > 0 {
		prog.Instrs = append(prog.Instrs, QWait{Cycles: tail})
	}
	return prog, nil
}

// opcodeFor maps an IR gate to its eQASM opcode.
func opcodeFor(g circuit.Gate) (string, bool, error) {
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

// gateParamsKey keys a gate's parameters for same-cycle merging. Symbolic
// slots key on the canonical expression text, so two ops merge only when
// their angles are the same function of the symbols — equal placeholder
// literals must never collapse distinct expressions into one masked op.
// Literals are rendered by strconv, byte-identical to %.17g: a key is
// built for every gate of every assembled cycle.
func gateParamsKey(g circuit.Gate) string {
	var b []byte
	for i, p := range g.Params {
		if i > 0 {
			b = append(b, ',')
		}
		if g.Symbolic(i) {
			b = append(b, "E:"...)
			b = append(b, g.Exprs[i].String()...)
		} else {
			b = strconv.AppendFloat(b, p, 'g', 17, 64)
		}
	}
	return string(b)
}

// qubitsKey keys a single-qubit mask register by its sorted qubits.
func qubitsKey(qs []int) string {
	b := append(make([]byte, 0, 2+3*len(qs)), "s:"...)
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(q), 10)
	}
	return string(b)
}

// pairsKey keys a two-qubit mask register by its sorted pairs.
func pairsKey(pairs [][2]int) string {
	b := append(make([]byte, 0, 2+6*len(pairs)), "t:"...)
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p[0]), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(p[1]), 10)
	}
	return string(b)
}

// maskAlloc allocates mask registers with content reuse and FIFO
// eviction.
type maskAlloc struct {
	size  int
	byKey map[string]int
	keyOf []string
	next  int
}

func newMaskAlloc(size int) *maskAlloc {
	return &maskAlloc{size: size, byKey: map[string]int{}, keyOf: make([]string, size)}
}

// get returns the register holding key, allocating (fresh=true) if absent.
func (a *maskAlloc) get(key string) (reg int, fresh bool) {
	if r, ok := a.byKey[key]; ok {
		return r, false
	}
	r := a.next
	a.next = (a.next + 1) % a.size
	if old := a.keyOf[r]; old != "" {
		delete(a.byKey, old)
	}
	a.keyOf[r] = key
	a.byKey[key] = r
	return r, true
}
