package openql

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/eqasm"
)

// circuitSlot locates one symbolic parameter in the compiled circuit.
type circuitSlot struct {
	gate, param int
	expr        *circuit.ParamExpr
}

// eqasmSlot locates one symbolic parameter in the assembled eQASM
// program: bundle instruction index, operation index within the bundle,
// parameter index within the operation.
type eqasmSlot struct {
	instr, op, param int
	expr             *circuit.ParamExpr
}

// BindTable records where every symbolic parameter expression surfaced in
// the compiled artefacts — the final circuit and, on realistic targets,
// the assembled eQASM bundles. It is built once at compile time by one
// scan of the artefacts; BindArtefact then reduces a parameter point to
// evaluating each slot's expression and patching the recorded offsets,
// never re-running mapping, scheduling or assembly.
type BindTable struct {
	symbols []string
	cslots  []circuitSlot
	eslots  []eqasmSlot
}

// newBindTable scans a compiled artefact for symbolic slots. It returns
// nil for concrete artefacts, so non-parametric compiles carry no
// overhead.
func newBindTable(c *Compiled) *BindTable {
	t := &BindTable{}
	syms := map[string]bool{}
	for gi, g := range c.Circuit.Gates {
		for pi := range g.Params {
			if !g.Symbolic(pi) {
				continue
			}
			t.cslots = append(t.cslots, circuitSlot{gate: gi, param: pi, expr: g.Exprs[pi]})
			for _, s := range g.Exprs[pi].Symbols() {
				syms[s] = true
			}
		}
	}
	if c.EQASM != nil {
		for ii, in := range c.EQASM.Instrs {
			b, ok := in.(eqasm.Bundle)
			if !ok {
				continue
			}
			for oi, op := range b.Ops {
				for pi := range op.Params {
					if !op.Symbolic(pi) {
						continue
					}
					t.eslots = append(t.eslots, eqasmSlot{instr: ii, op: oi, param: pi, expr: op.Exprs[pi]})
					for _, s := range op.Exprs[pi].Symbols() {
						syms[s] = true
					}
				}
			}
		}
	}
	if len(t.cslots) == 0 && len(t.eslots) == 0 {
		return nil
	}
	t.symbols = make([]string, 0, len(syms))
	for s := range syms {
		t.symbols = append(t.symbols, s)
	}
	sort.Strings(t.symbols)
	return t
}

// Symbols returns the sorted parameter symbols of the compiled program,
// or nil when it is concrete.
func (c *Compiled) Symbols() []string {
	if c.Binds == nil {
		return nil
	}
	return append([]string(nil), c.Binds.symbols...)
}

// IsParametric reports whether the artefact still carries unbound
// symbolic parameters and must be bound before execution.
func (c *Compiled) IsParametric() bool { return c.Binds != nil }

// BindArtefact returns a concrete copy of the artefact with every
// symbolic slot evaluated under vals — the bind-only fast path of the
// variational loop. The receiver is never modified (compiled artefacts
// are shared by the compile caches), but the copy is as shallow as
// correctness allows: only the gate list, the gates that actually carry
// symbols, the eQASM instruction list and the bundles that carry symbols
// are cloned, so a bind is O(#slots + #gates) pointer work with no pass
// re-runs. Schedule, mapping result and compile report are shared with
// the symbolic artefact. The bound copy's CQASM renders the bound
// circuit, with every $symbol parameter replaced by its value.
//
// vals must bind exactly the symbols of the program: missing and unknown
// names both fail, so optimiser typos surface immediately.
func (c *Compiled) BindArtefact(vals map[string]float64) (*Compiled, error) {
	t := c.Binds
	if t == nil {
		if len(vals) > 0 {
			return nil, fmt.Errorf("openql: program is not parametric; no symbols to bind")
		}
		return c, nil
	}
	if len(vals) != len(t.symbols) {
		return nil, fmt.Errorf("openql: bind wants symbols %v, got %d values", t.symbols, len(vals))
	}
	for _, s := range t.symbols {
		if _, ok := vals[s]; !ok {
			return nil, fmt.Errorf("openql: missing binding for symbol %q", s)
		}
	}

	out := *c
	out.Binds = nil

	// Patch the circuit: clone the gate slice, then deep-copy only the
	// gates holding symbolic slots (fresh Params, expressions dropped).
	gates := append([]circuit.Gate(nil), c.Circuit.Gates...)
	cloned := map[int]bool{}
	for _, s := range t.cslots {
		g := &gates[s.gate]
		if !cloned[s.gate] {
			g.Params = append([]float64(nil), g.Params...)
			g.Exprs = nil
			cloned[s.gate] = true
		}
		v, err := s.expr.Eval(vals)
		if err != nil {
			return nil, err
		}
		g.Params[s.param] = v
	}
	cc := *c.Circuit
	cc.Gates = gates
	out.Circuit = &cc

	// Patch the eQASM program the same way: clone the instruction slice,
	// then per affected bundle clone its op slice and the affected ops.
	if len(t.eslots) > 0 {
		instrs := append([]eqasm.Instr(nil), c.EQASM.Instrs...)
		opsCloned := map[int]bool{}
		opCloned := map[[2]int]bool{}
		for _, s := range t.eslots {
			if !opsCloned[s.instr] {
				b := instrs[s.instr].(eqasm.Bundle)
				b.Ops = append([]eqasm.QOp(nil), b.Ops...)
				instrs[s.instr] = b
				opsCloned[s.instr] = true
			}
			b := instrs[s.instr].(eqasm.Bundle)
			op := &b.Ops[s.op]
			if k := [2]int{s.instr, s.op}; !opCloned[k] {
				op.Params = append([]float64(nil), op.Params...)
				op.Exprs = nil
				opCloned[k] = true
			}
			v, err := s.expr.Eval(vals)
			if err != nil {
				return nil, err
			}
			op.Params[s.param] = v
		}
		ep := *c.EQASM
		ep.Instrs = instrs
		out.EQASM = &ep
	}
	return &out, nil
}
