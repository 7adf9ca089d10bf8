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
// The input is not modified. Optimize copies the gate list only when a
// round first removes or merges a gate, and filters that copy in place
// from then on, giving a merged rotation fresh parameter slices before it
// changes them; a circuit it cannot change costs no gate slice, and the
// output then shares the input's gates, clipped so an append cannot
// write into them.
func Optimize(c *circuit.Circuit) *circuit.Circuit {
	o := peephole{gates: c.Gates}
	for {
		n := len(o.gates)
		o.cancelPairs()
		o.mergeRotations()
		o.dropIdentities()
		if len(o.gates) == n {
			return &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, Gates: slices.Clip(o.gates)}
		}
	}
}

// peephole is the state of one Optimize call: the current gate list and
// the removal marks of the round in progress.
type peephole struct {
	gates []circuit.Gate
	// owned is set once gates is Optimize's own copy, which it may write.
	owned bool
	// removed flags the gates the current sub-pass drops, marked counts
	// them; removed is allocated when a gate is first dropped.
	removed []bool
	marked  int
}

// own makes gates Optimize's own copy before its first write.
func (o *peephole) own() {
	if !o.owned {
		o.gates, o.owned = slices.Clone(o.gates), true
	}
}

// remove marks gate i for removal by the next compact.
func (o *peephole) remove(i int) {
	if o.removed == nil {
		o.removed = make([]bool, len(o.gates))
	}
	o.removed[i] = true
	o.marked++
}

// isRemoved reports whether gate i is marked for removal.
func (o *peephole) isRemoved(i int) bool { return o.marked > 0 && o.removed[i] }

// inverseOf returns the gate that undoes the named one when applied to
// the same operands, for the gates whose inverse needs no parameters.
// Switches rather than maps: the peephole passes ask once per gate.
func inverseOf(name string) (string, bool) {
	switch name {
	case "x", "y", "z", "h", "i", "cnot", "cz", "swap", "toffoli", "fredkin":
		return name, true
	case "s":
		return "sdag", true
	case "sdag":
		return "s", true
	case "t":
		return "tdag", true
	case "tdag":
		return "t", true
	case "x90":
		return "mx90", true
	case "mx90":
		return "x90", true
	case "y90":
		return "my90", true
	case "my90":
		return "y90", true
	case "iswap":
		return "iswapdag", true
	case "iswapdag":
		return "iswap", true
	}
	return "", false
}

// isRotation reports whether the named gate is a one-angle rotation, whose
// runs merge by adding angles.
func isRotation(name string) bool {
	switch name {
	case "rx", "ry", "rz", "phase", "cphase", "crz":
		return true
	}
	return false
}

// nextOnQubits returns the index of the first gate after i that shares a
// qubit with g, or -1. blocked reports whether a non-unitary op intervened.
func nextOnQubits(gates []circuit.Gate, i int) (int, bool) {
	qs := gates[i].Qubits
	for j := i + 1; j < len(gates); j++ {
		other := &gates[j]
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

// compact drops the gates marked removed, in place, and clears the
// marks. It writes nothing when nothing is marked.
func (o *peephole) compact() {
	if o.marked == 0 {
		return
	}
	o.own()
	out := o.gates[:0]
	for i := range o.gates {
		if !o.removed[i] {
			out = append(out, o.gates[i])
		}
	}
	clear(o.removed[:len(o.gates)])
	o.gates, o.marked = out, 0
}

// cancelPairs removes adjacent self-inverse pairs.
func (o *peephole) cancelPairs() {
	gates := o.gates
	for i := 0; i < len(gates); i++ {
		if o.isRemoved(i) {
			continue
		}
		g := &gates[i]
		inv, ok := inverseOf(g.Name)
		if !ok || g.HasCond {
			continue
		}
		j, blocked := nextOnQubits(gates, i)
		if j < 0 || blocked || o.isRemoved(j) {
			continue
		}
		other := &gates[j]
		if other.HasCond {
			continue // conditional gates fire data-dependently; keep both
		}
		if other.Name == inv && slices.Equal(g.Qubits, other.Qubits) {
			o.remove(i)
			o.remove(j)
		}
	}
	o.compact()
}

// mergeRotations folds each rotation's following same-kind rotations on
// the same operands into it.
func (o *peephole) mergeRotations() {
	for i := 0; i < len(o.gates); i++ {
		if o.isRemoved(i) {
			continue
		}
		if g := &o.gates[i]; !isRotation(g.Name) || g.HasCond {
			continue
		}
		// Absorb following rotations of the same kind on the same
		// operands. pos tracks the scan position without disturbing the
		// outer loop, so skipped-over gates on other qubits stay in order.
		pos := i
		for {
			j, blocked := nextOnQubits(o.gates, pos)
			if j < 0 || blocked || o.isRemoved(j) {
				break
			}
			other := o.gates[j]
			if other.Name != o.gates[i].Name || !slices.Equal(o.gates[i].Qubits, other.Qubits) || other.HasCond {
				break
			}
			var sum *circuit.ParamExpr
			if o.gates[i].Symbolic(0) || other.Symbolic(0) {
				// Merging a symbolic slot keeps the sum symbolic (a
				// literal contributes to the constant term), so the
				// bind table stays exact across the merge.
				if sum = addExprs(slotExpr(o.gates[i], 0), slotExpr(other, 0)); sum == nil {
					break
				}
			}
			o.own()
			g := &o.gates[i]
			ownParams(g)
			if sum != nil {
				setSlot(g, 0, sum)
			} else {
				g.Params[0] = addAngles(g.Params[0], other.Params[0])
			}
			o.remove(j)
			pos = j
		}
	}
	o.compact()
}

// ownParams gives g fresh parameter slices, so a pass may rewrite them
// without touching the gate it was copied from.
func ownParams(g *circuit.Gate) {
	g.Params = slices.Clone(g.Params)
	g.Exprs = slices.Clone(g.Exprs)
}

// dropIdentities removes identity gates and zero-angle rotations.
func (o *peephole) dropIdentities() {
	for i := range o.gates {
		if isIdentity(&o.gates[i]) {
			o.remove(i)
		}
	}
	o.compact()
}

// isIdentity reports whether g is a no-op: an identity gate, conditional
// or not, or a literal rotation by a multiple of 2π. A symbolic
// rotation's angle is unknown until bind time, so it is never one.
func isIdentity(g *circuit.Gate) bool {
	return g.Name == "i" ||
		isRotation(g.Name) && !g.Symbolic(0) && math.Abs(normalizeAngle(g.Params[0])) < 1e-12
}

// normalizeAngle maps a finite angle to (−π, π] in constant time.
func normalizeAngle(a float64) float64 {
	a = math.Remainder(a, 2*math.Pi)
	if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// addAngles merges two finite rotation angles. Where the plain sum
// overflows, it sums them reduced modulo 4π, the rotations' exact period,
// so a merged angle stays finite; every other sum is left as it was.
func addAngles(a, b float64) float64 {
	if s := a + b; !math.IsInf(s, 0) {
		return s
	}
	return math.Mod(a, 4*math.Pi) + math.Mod(b, 4*math.Pi)
}
