package compiler

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/circuit"
)

// Decompose rewrites every gate the platform does not support natively
// into supported primitives. It returns a new circuit; the input is not
// modified. Reversible-circuit design and gate decomposition are the
// first stages of the paper's compiler (§2.4).
//
// Decompose runs no rule itself: it reads the platform's lowering table
// (see lowering), whose entry for a gate name is the full expansion of
// the rules below into primitives, built the first time a compile on
// the platform meets that name. A first pass over the input sums the
// entries' sizes, so the output takes exactly one gate slice, plus one
// backing array for the operands and one for the parameters that must
// be computed; a second pass instantiates each entry on its source
// gate's operands, parameters and condition, with no per-primitive
// validation. Native gates pass through as values sharing their operand
// slices with the input; primitives share constant parameter slices with
// the table. No pass mutates either.
func Decompose(c *circuit.Circuit, p *Platform) (*circuit.Circuit, error) {
	size, nOps, nParams := 0, 0, 0
	for i := range c.Gates {
		l := p.lowering(c.Gates[i].Name)
		switch {
		case l == nil:
			size++
		case l.err != nil:
			return nil, l.err
		default:
			size, nOps, nParams = size+len(l.prims), nOps+l.nOps, nParams+l.nParams
		}
	}
	gates := make([]circuit.Gate, 0, size)
	var ops []int
	if nOps > 0 {
		ops = make([]int, nOps)
	}
	var params []float64
	if nParams > 0 {
		params = make([]float64, nParams)
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		l := p.lowering(g.Name)
		if l == nil {
			gates = append(gates, *g)
			continue
		}
		for k := range l.prims {
			pr := &l.prims[k]
			// Classical control distributes over the decomposition: each
			// primitive fires under the source gate's condition.
			ng := circuit.Gate{Name: pr.name, Params: pr.consts, HasCond: g.HasCond, CondBit: g.CondBit}
			n := len(pr.ops)
			ng.Qubits, ops = ops[:n:n], ops[n:]
			for j, op := range pr.ops {
				ng.Qubits[j] = g.Qubits[op]
			}
			if pr.slots != nil {
				n := len(pr.slots)
				ng.Params, params = params[:n:n], params[n:]
				for j, s := range pr.slots {
					switch {
					case s.slot < 0:
						ng.Params[j] = s.k
					case g.Symbolic(s.slot):
						// A symbolic slot stays symbolic (the expression
						// is scaled, the literal is a 0 placeholder), so
						// decomposition preserves the bind relation
						// exactly.
						if ng.Exprs == nil {
							ng.Exprs = make([]*circuit.ParamExpr, n)
						}
						ng.Exprs[j] = g.Exprs[s.slot].Scale(s.k)
					default:
						ng.Params[j] = g.Params[s.slot] * s.k
					}
				}
			}
			gates = append(gates, ng)
		}
	}
	return &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, Gates: gates}, nil
}

// lowering is one gate name's entry in a platform's lowering table: its
// full expansion into the platform's primitives, or the error that
// expansion met.
type lowering struct {
	prims []primitive
	err   error
	// nOps and nParams count the operands and the computed parameters
	// an instance writes.
	nOps, nParams int
}

// primitive is one gate of a lowering, in terms of its source gate.
type primitive struct {
	name string
	// ops are the operands as positions in the source gate's Qubits.
	ops []int
	// consts are the parameters, shared by every instance, when none
	// derives from a source slot; otherwise slots says how to compute
	// each one.
	consts []float64
	slots  []paramSlot
}

// paramSlot is one parameter of a primitive: source slot slot scaled by
// k, or the constant k when slot < 0.
type paramSlot struct {
	slot int
	k    float64
}

// lowering returns the platform's lowering of the named gate, nil when
// the gate passes through Decompose unchanged: non-unitary operations and
// native gates, where a platform with an empty gate table accepts
// everything (perfect target). Entries of registered gates are built once
// per gate set, on first use, and memoised like ContentHash; other names
// (which fail validation anyway) are built per call so arbitrary names
// cannot grow the table.
func (p *Platform) lowering(name string) *lowering {
	if circuit.IsNonUnitary(name) {
		return nil
	}
	table := p.loweringTable()
	if l, ok := table.Load(name); ok {
		return l.(*lowering)
	}
	l := buildLowering(name, p)
	if _, ok := circuit.Lookup(name); ok {
		cached, _ := table.LoadOrStore(name, l)
		return cached.(*lowering)
	}
	return l
}

// buildLowering runs the rules on a probe gate of the named kind: its
// operands are the positions 0..arity-1 and its parameter slot i holds
// the symbol named i, so every primitive the rules emit reads back
// as operand positions and slot scalings. This is the only place the
// rules and their gate checks run.
func buildLowering(name string, p *Platform) *lowering {
	probe := circuit.Gate{Name: name}
	if spec, ok := circuit.Lookup(name); ok {
		probe.Qubits = make([]int, spec.Arity)
		for i := range probe.Qubits {
			probe.Qubits[i] = i
		}
		if spec.NumParams > 0 {
			probe.Params = make([]float64, spec.NumParams)
			probe.Exprs = make([]*circuit.ParamExpr, spec.NumParams)
			for i := range probe.Exprs {
				probe.Exprs[i] = circuit.Sym(strconv.Itoa(i))
			}
		}
	}
	if passesThrough(probe, p) {
		return nil
	}
	leaves, err := expandAll(nil, probe, p)
	if err != nil {
		return &lowering{err: err}
	}
	l := &lowering{prims: make([]primitive, len(leaves))}
	for i, leaf := range leaves {
		pr := primitive{name: leaf.Name, ops: leaf.Qubits, consts: leaf.Params}
		l.nOps += len(leaf.Qubits)
		if leaf.IsParametric() {
			pr.consts = nil
			pr.slots = make([]paramSlot, len(leaf.Params))
			for j, v := range leaf.Params {
				pr.slots[j] = paramSlot{slot: -1, k: v}
				if leaf.Symbolic(j) {
					pr.slots[j] = probeSlot(leaf.Exprs[j])
				}
			}
			l.nParams += len(pr.slots)
		}
		l.prims[i] = pr
	}
	return l
}

// probeSlot reads a probe primitive's symbolic parameter back as a
// scaled source slot. The rules only ever scale a slot, so anything else
// is a programming error.
func probeSlot(e *circuit.ParamExpr) paramSlot {
	if len(e.Terms) == 1 && e.Const == 0 {
		if i, err := strconv.Atoi(e.Terms[0].Sym); err == nil {
			return paramSlot{slot: i, k: e.Terms[0].Coeff}
		}
	}
	panic(fmt.Sprintf("compiler: a lowering rule emitted parameter %s, not a scaled source slot", e))
}

// expandAll appends g's full expansion into the platform's primitives to
// out, applying the rules recursively, depth first.
func expandAll(out []circuit.Gate, g circuit.Gate, p *Platform) ([]circuit.Gate, error) {
	// pending is the depth-first work list, next gate last; depths[i]
	// counts the rules applied to reach pending[i].
	pending, depths := []circuit.Gate{g}, []int{0}
	for len(pending) > 0 {
		top := len(pending) - 1
		g, depth := pending[top], depths[top]
		pending, depths = pending[:top], depths[:top]
		if depth > maxDecomposeDepth {
			return nil, fmt.Errorf("compiler: decomposition of %q did not terminate", g.Name)
		}
		if passesThrough(g, p) {
			out = append(out, g)
			continue
		}
		var err error
		if pending, err = expand(pending, g); err != nil {
			return nil, err
		}
		// Push the rule's gates so the first is lowered first, each under
		// g's condition.
		sub := pending[top:]
		slices.Reverse(sub)
		for i := range sub {
			sub[i].HasCond, sub[i].CondBit = g.HasCond, g.CondBit
			depths = append(depths, depth+1)
		}
	}
	return out, nil
}

const maxDecomposeDepth = 16

// passesThrough reports whether the rules keep g as it is: non-unitary
// operations and native gates, where a platform with an empty gate table
// accepts everything (perfect target).
func passesThrough(g circuit.Gate, p *Platform) bool {
	return !g.IsUnitary() || len(p.Gates) == 0 || p.Supports(g.Name)
}

// expand appends the one-level decomposition of g into more primitive
// gates (correct up to global phase) to out. The rules bottom out in the NISQ
// set {x90, mx90, y90, my90, rz, cz}.
func expand(out []circuit.Gate, g circuit.Gate) ([]circuit.Gate, error) {
	q := g.Qubits
	// on(i, j) is the operand run q[i:j], shared rather than copied: no
	// pass mutates a gate's operands in place.
	on := func(i, j int) []int { return q[i:j:j] }
	mk := func(name string, qubits []int, params ...float64) circuit.Gate {
		ng, err := circuit.NewGate(name, qubits, params...)
		if err != nil {
			panic(err) // rules are static; an error is a programming bug
		}
		return ng
	}
	// mkE builds a primitive whose single parameter is slot i of g scaled
	// by k — symbolic slots stay symbolic (the expression is scaled), so
	// decomposition preserves the bind relation exactly.
	mkE := func(name string, qubits []int, i int, k float64) circuit.Gate {
		if !g.Symbolic(i) {
			return mk(name, qubits, g.Params[i]*k)
		}
		ng, err := circuit.NewGateExpr(name, qubits, g.Exprs[i].Scale(k))
		if err != nil {
			panic(err)
		}
		return ng
	}
	switch g.Name {
	case "x":
		return append(out, mk("x90", q), mk("x90", q)), nil
	case "y":
		return append(out, mk("y90", q), mk("y90", q)), nil
	case "z":
		return append(out, mk("rz", q, math.Pi)), nil
	case "h":
		// H = Y90 · Z (apply z first).
		return append(out, mk("z", q), mk("y90", q)), nil
	case "s":
		return append(out, mk("rz", q, math.Pi/2)), nil
	case "sdag":
		return append(out, mk("rz", q, -math.Pi/2)), nil
	case "t":
		return append(out, mk("rz", q, math.Pi/4)), nil
	case "tdag":
		return append(out, mk("rz", q, -math.Pi/4)), nil
	case "rx":
		// RX(θ) = Y90 · RZ(θ) · MY90 (apply my90 first): Y90 maps the z
		// axis onto the x axis.
		return append(out, mk("my90", q), mkE("rz", q, 0, 1), mk("y90", q)), nil
	case "ry":
		// RY(θ) = MX90 · RZ(θ) · X90 (apply x90 first).
		return append(out, mk("x90", q), mkE("rz", q, 0, 1), mk("mx90", q)), nil
	case "phase":
		// Phase(θ) = RZ(θ) up to global phase.
		return append(out, mkE("rz", q, 0, 1)), nil
	case "u3":
		// U3(θ,φ,λ) = RZ(φ)·RY(θ)·RZ(λ) up to global phase.
		return append(out,
			mkE("rz", q, 2, 1),
			mkE("ry", q, 0, 1),
			mkE("rz", q, 1, 1),
		), nil
	case "cnot":
		// CNOT(c,t) = H_t · CZ · H_t.
		return append(out,
			mk("h", on(1, 2)),
			mk("cz", q),
			mk("h", on(1, 2)),
		), nil
	case "cz":
		// For CNOT-native platforms: CZ = H_t · CNOT · H_t. To avoid a
		// rewrite cycle with the cnot rule, expand directly to the NISQ
		// realisation of H around a cz is impossible — instead express CZ
		// via cphase, which bottoms out in rz/cnot.
		return append(out, mk("cphase", q, math.Pi)), nil
	case "swap":
		return append(out,
			mk("cnot", q),
			mk("cnot", []int{q[1], q[0]}),
			mk("cnot", q),
		), nil
	case "iswap":
		// iSWAP = SWAP · CZ · (S⊗S) (apply the phases first).
		return append(out,
			mk("s", on(0, 1)),
			mk("s", on(1, 2)),
			mk("cz", q),
			mk("swap", q),
		), nil
	case "iswapdag":
		return append(out,
			mk("swap", q),
			mk("cz", q),
			mk("sdag", on(0, 1)),
			mk("sdag", on(1, 2)),
		), nil
	case "cphase":
		// CPhase(θ) = RZ_a(θ/2)·RZ_b(θ/2)·CNOT·RZ_b(−θ/2)·CNOT up to
		// global phase.
		return append(out,
			mkE("rz", on(0, 1), 0, 0.5),
			mkE("rz", on(1, 2), 0, 0.5),
			mk("cnot", q),
			mkE("rz", on(1, 2), 0, -0.5),
			mk("cnot", q),
		), nil
	case "crz":
		return append(out,
			mkE("rz", on(1, 2), 0, 0.5),
			mk("cnot", q),
			mkE("rz", on(1, 2), 0, -0.5),
			mk("cnot", q),
		), nil
	case "toffoli":
		// Standard 15-gate Clifford+T decomposition.
		a, b, t, bt, at := on(0, 1), on(1, 2), on(2, 3), on(1, 3), []int{q[0], q[2]}
		return append(out,
			mk("h", t),
			mk("cnot", bt),
			mk("tdag", t),
			mk("cnot", at),
			mk("t", t),
			mk("cnot", bt),
			mk("tdag", t),
			mk("cnot", at),
			mk("t", b),
			mk("t", t),
			mk("h", t),
			mk("cnot", on(0, 2)),
			mk("t", a),
			mk("tdag", b),
			mk("cnot", on(0, 2)),
		), nil
	case "fredkin":
		// CSWAP(c; a, b) = CNOT(b,a) · Toffoli(c,a,b) · CNOT(b,a).
		ba := []int{q[2], q[1]}
		return append(out,
			mk("cnot", ba),
			mk("toffoli", q),
			mk("cnot", ba),
		), nil
	case "i", "x90", "mx90", "y90", "my90", "rz":
		// Already primitive; a platform that rejects these cannot be
		// targeted.
		return nil, fmt.Errorf("compiler: gate %q is a base primitive the platform does not support", g.Name)
	default:
		return nil, fmt.Errorf("compiler: no decomposition rule for gate %q", g.Name)
	}
}
