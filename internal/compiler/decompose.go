package compiler

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/circuit"
)

// Decompose rewrites every gate the platform does not support natively
// into supported primitives, applying rules recursively. It returns a new
// circuit; the input is not modified. Native gates pass through as
// values sharing their operand slices with the input, which no pass
// mutates. Reversible-circuit design and gate decomposition are the
// first stages of the paper's compiler (§2.4).
func Decompose(c *circuit.Circuit, p *Platform) (*circuit.Circuit, error) {
	// Most rules expand a gate into two to five primitives, so four slots
	// per gate to expand size the common output in one allocation.
	size := len(c.Gates)
	for _, g := range c.Gates {
		if !passesThrough(g, p) {
			size += 3
		}
	}
	gates := make([]circuit.Gate, 0, size)
	// pending is the depth-first work list of one input gate's lowering,
	// next gate last; depths[i] counts the rules applied to reach
	// pending[i].
	var pending []circuit.Gate
	var depths []int
	for _, g := range c.Gates {
		pending, depths = append(pending, g), append(depths, 0)
		for len(pending) > 0 {
			top := len(pending) - 1
			g, depth := pending[top], depths[top]
			pending, depths = pending[:top], depths[:top]
			if depth > maxDecomposeDepth {
				return nil, fmt.Errorf("compiler: decomposition of %q did not terminate", g.Name)
			}
			if passesThrough(g, p) {
				gates = append(gates, g)
				continue
			}
			var err error
			if pending, err = expand(pending, g); err != nil {
				return nil, err
			}
			// Push the rule's gates so the first is lowered first. Classical
			// control distributes over the decomposition: each primitive
			// fires under the same condition.
			sub := pending[top:]
			slices.Reverse(sub)
			for i := range sub {
				sub[i].HasCond, sub[i].CondBit = g.HasCond, g.CondBit
				depths = append(depths, depth+1)
			}
		}
	}
	return &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, Gates: gates}, nil
}

const maxDecomposeDepth = 16

// passesThrough reports whether Decompose keeps g as it is: non-unitary
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
