package compiler

import (
	"math"
	"slices"

	"repro/internal/circuit"
)

// Optimize applies peephole optimisations to a fixpoint: cancellation of
// adjacent self-inverse pairs, merging of consecutive rotations about the
// same axis, and removal of identity gates and zero-angle rotations.
// "Adjacent" means no intervening gate touches any of the pair's qubits.
// The input is not modified: Optimize copies the gate list once and
// filters that copy in place, giving a merged rotation fresh parameter
// slices before it changes them.
func Optimize(c *circuit.Circuit) *circuit.Circuit {
	gates := slices.Clone(c.Gates)
	removed := make([]bool, len(gates))
	for {
		n := len(gates)
		gates = cancelPairs(gates, removed[:len(gates)])
		gates = mergeRotations(gates, removed[:len(gates)])
		gates = dropIdentities(gates)
		if len(gates) == n {
			return &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, Gates: gates}
		}
	}
}

var selfInversePairs = map[string]string{
	"x": "x", "y": "y", "z": "z", "h": "h", "i": "i",
	"cnot": "cnot", "cz": "cz", "swap": "swap",
	"toffoli": "toffoli", "fredkin": "fredkin",
	"s": "sdag", "sdag": "s", "t": "tdag", "tdag": "t",
	"x90": "mx90", "mx90": "x90", "y90": "my90", "my90": "y90",
	"iswap": "iswapdag", "iswapdag": "iswap",
}

var rotationGates = map[string]bool{"rx": true, "ry": true, "rz": true, "phase": true, "cphase": true, "crz": true}

// nextOnQubits returns the index of the first gate after i that shares a
// qubit with g, or -1. blocked reports whether a non-unitary op intervened.
func nextOnQubits(gates []circuit.Gate, i int) (int, bool) {
	qs := gates[i].Qubits
	for j := i + 1; j < len(gates); j++ {
		other := gates[j]
		if other.Name == circuit.OpBarrier || other.Name == circuit.OpMeasureAll {
			return j, true
		}
		for _, q := range other.Qubits {
			if slices.Contains(qs, q) {
				return j, !other.IsUnitary()
			}
		}
	}
	return -1, false
}

// compact drops the gates marked removed, in place, and clears the marks.
func compact(gates []circuit.Gate, removed []bool) []circuit.Gate {
	out := gates[:0]
	for i, g := range gates {
		if !removed[i] {
			out = append(out, g)
		}
		removed[i] = false
	}
	return out
}

// cancelPairs removes adjacent self-inverse pairs; removed is cleared
// scratch space, one flag per gate.
func cancelPairs(gates []circuit.Gate, removed []bool) []circuit.Gate {
	for i := 0; i < len(gates); i++ {
		if removed[i] {
			continue
		}
		g := gates[i]
		inv, ok := selfInversePairs[g.Name]
		if !ok || g.HasCond {
			continue
		}
		j, blocked := nextOnQubits(gates, i)
		if j < 0 || blocked || removed[j] {
			continue
		}
		other := gates[j]
		if other.HasCond {
			continue // conditional gates fire data-dependently; keep both
		}
		if other.Name == inv && slices.Equal(g.Qubits, other.Qubits) {
			removed[i], removed[j] = true, true
		}
	}
	return compact(gates, removed)
}

// mergeRotations folds each rotation's following same-kind rotations on
// the same operands into it; removed is cleared scratch space.
func mergeRotations(gates []circuit.Gate, removed []bool) []circuit.Gate {
	for i := 0; i < len(gates); i++ {
		if removed[i] {
			continue
		}
		g := &gates[i]
		if !rotationGates[g.Name] || g.HasCond {
			continue
		}
		// Absorb following rotations of the same kind on the same
		// operands. pos tracks the scan position without disturbing the
		// outer loop, so skipped-over gates on other qubits stay in order.
		pos := i
		for {
			j, blocked := nextOnQubits(gates, pos)
			if j < 0 || blocked || removed[j] {
				break
			}
			other := gates[j]
			if other.Name != g.Name || !slices.Equal(g.Qubits, other.Qubits) || other.HasCond {
				break
			}
			ownParams(g)
			if g.Symbolic(0) || other.Symbolic(0) {
				// Merging a symbolic slot keeps the sum symbolic (a
				// literal contributes to the constant term), so the
				// bind table stays exact across the merge.
				setSlot(g, 0, slotExpr(*g, 0).Add(slotExpr(other, 0)))
			} else {
				g.Params[0] += other.Params[0]
			}
			removed[j] = true
			pos = j
		}
	}
	return compact(gates, removed)
}

// ownParams gives g fresh parameter slices, so a pass may rewrite them
// without touching the gate it was copied from.
func ownParams(g *circuit.Gate) {
	g.Params = slices.Clone(g.Params)
	g.Exprs = slices.Clone(g.Exprs)
}

func dropIdentities(gates []circuit.Gate) []circuit.Gate {
	out := gates[:0]
	for _, g := range gates {
		// Identities are no-ops whether or not they are conditional.
		if g.Name == "i" {
			continue
		}
		// A symbolic rotation's angle is unknown until bind time, so it is
		// never a removable identity.
		if rotationGates[g.Name] && !g.Symbolic(0) && math.Abs(normalizeAngle(g.Params[0])) < 1e-12 {
			continue
		}
		out = append(out, g)
	}
	return out
}

// normalizeAngle maps an angle to (−π, π].
func normalizeAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
