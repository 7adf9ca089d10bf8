package circuit

import (
	"sort"

	"repro/internal/quantum"
)

// Spec describes one entry of the gate registry: the static properties of a
// named unitary gate.
type Spec struct {
	Name      string
	Arity     int // number of operand qubits
	NumParams int
	// Matrix builds the unitary for the given parameters. The returned
	// matrix uses the convention that operand 0 is the low-order bit.
	Matrix func(params []float64) quantum.Matrix
	// InverseOf returns a gate implementing the inverse of g.
	InverseOf func(g Gate) Gate
}

var registry = map[string]Spec{}

func register(s Spec) {
	registry[s.Name] = s
}

// Lookup returns the spec of a registered gate.
func Lookup(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered gate names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func selfInverse(g Gate) Gate { return g.Clone() }

func negParams(g Gate) Gate {
	inv := g.Clone()
	for i := range inv.Params {
		inv.Params[i] = -inv.Params[i]
	}
	return inv
}

func renameTo(name string) func(Gate) Gate {
	return func(g Gate) Gate {
		inv := g.Clone()
		inv.Name = name
		return inv
	}
}

// fixed returns a constructor that hands out m itself: one matrix, built
// once and shared by every gate of the name, which no caller writes.
func fixed(m quantum.Matrix) func([]float64) quantum.Matrix {
	return func([]float64) quantum.Matrix { return m }
}

func init() {
	// Single-qubit fixed gates.
	register(Spec{Name: "i", Arity: 1, Matrix: fixed(quantum.I2), InverseOf: selfInverse})
	register(Spec{Name: "x", Arity: 1, Matrix: fixed(quantum.X), InverseOf: selfInverse})
	register(Spec{Name: "y", Arity: 1, Matrix: fixed(quantum.Y), InverseOf: selfInverse})
	register(Spec{Name: "z", Arity: 1, Matrix: fixed(quantum.Z), InverseOf: selfInverse})
	register(Spec{Name: "h", Arity: 1, Matrix: fixed(quantum.H), InverseOf: selfInverse})
	register(Spec{Name: "s", Arity: 1, Matrix: fixed(quantum.S), InverseOf: renameTo("sdag")})
	register(Spec{Name: "sdag", Arity: 1, Matrix: fixed(quantum.Sdag), InverseOf: renameTo("s")})
	register(Spec{Name: "t", Arity: 1, Matrix: fixed(quantum.T), InverseOf: renameTo("tdag")})
	register(Spec{Name: "tdag", Arity: 1, Matrix: fixed(quantum.Tdag), InverseOf: renameTo("t")})
	register(Spec{Name: "x90", Arity: 1, Matrix: fixed(quantum.SqrtX), InverseOf: renameTo("mx90")})
	register(Spec{Name: "mx90", Arity: 1, Matrix: fixed(quantum.SqrtX.Dagger()), InverseOf: renameTo("x90")})
	register(Spec{Name: "y90", Arity: 1, Matrix: fixed(quantum.RY(1.5707963267948966)), InverseOf: renameTo("my90")})
	register(Spec{Name: "my90", Arity: 1, Matrix: fixed(quantum.RY(-1.5707963267948966)), InverseOf: renameTo("y90")})

	// Single-qubit parametric gates.
	register(Spec{Name: "rx", Arity: 1, NumParams: 1,
		Matrix:    func(p []float64) quantum.Matrix { return quantum.RX(p[0]) },
		InverseOf: negParams})
	register(Spec{Name: "ry", Arity: 1, NumParams: 1,
		Matrix:    func(p []float64) quantum.Matrix { return quantum.RY(p[0]) },
		InverseOf: negParams})
	register(Spec{Name: "rz", Arity: 1, NumParams: 1,
		Matrix:    func(p []float64) quantum.Matrix { return quantum.RZ(p[0]) },
		InverseOf: negParams})
	register(Spec{Name: "phase", Arity: 1, NumParams: 1,
		Matrix:    func(p []float64) quantum.Matrix { return quantum.Phase(p[0]) },
		InverseOf: negParams})
	register(Spec{Name: "u3", Arity: 1, NumParams: 3,
		Matrix: func(p []float64) quantum.Matrix { return quantum.U3(p[0], p[1], p[2]) },
		InverseOf: func(g Gate) Gate {
			inv := g.Clone()
			inv.Params = []float64{-g.Params[0], -g.Params[2], -g.Params[1]}
			return inv
		}})

	// Two-qubit gates. Operand order: (control, target) for cnot; the
	// matrix convention puts operand 0 on bit 0.
	register(Spec{Name: "cnot", Arity: 2, Matrix: fixed(quantum.CNOT), InverseOf: selfInverse})
	register(Spec{Name: "cz", Arity: 2, Matrix: fixed(quantum.CZ), InverseOf: selfInverse})
	register(Spec{Name: "swap", Arity: 2, Matrix: fixed(quantum.SWAP), InverseOf: selfInverse})
	register(Spec{Name: "iswap", Arity: 2, Matrix: fixed(quantum.ISWAP),
		InverseOf: func(g Gate) Gate {
			inv := g.Clone()
			inv.Name = "iswapdag"
			return inv
		}})
	register(Spec{Name: "iswapdag", Arity: 2, Matrix: fixed(quantum.ISWAP.Dagger()), InverseOf: renameTo("iswap")})
	register(Spec{Name: "cphase", Arity: 2, NumParams: 1,
		Matrix:    func(p []float64) quantum.Matrix { return quantum.CPhase(p[0]) },
		InverseOf: negParams})
	register(Spec{Name: "crz", Arity: 2, NumParams: 1,
		Matrix:    func(p []float64) quantum.Matrix { return quantum.Controlled(quantum.RZ(p[0])) },
		InverseOf: negParams})

	// Three-qubit gates; operand order (control, control, target) for
	// toffoli and (control, a, b) for fredkin.
	register(Spec{Name: "toffoli", Arity: 3, Matrix: fixed(quantum.Toffoli), InverseOf: selfInverse})
	register(Spec{Name: "fredkin", Arity: 3, Matrix: fixed(quantum.Fredkin), InverseOf: selfInverse})
}
