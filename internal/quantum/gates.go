package quantum

import (
	"math"
	"math/cmplx"
)

// Standard single-qubit gate matrices. These are package-level values; they
// must be treated as read-only.
var (
	// I2 is the single-qubit identity.
	I2 = Identity(2)
	// X is the Pauli-X (NOT) gate.
	X = MatrixFromRows(
		[]complex128{0, 1},
		[]complex128{1, 0},
	)
	// Y is the Pauli-Y gate.
	Y = MatrixFromRows(
		[]complex128{0, -1i},
		[]complex128{1i, 0},
	)
	// Z is the Pauli-Z gate.
	Z = MatrixFromRows(
		[]complex128{1, 0},
		[]complex128{0, -1},
	)
	// H is the Hadamard gate.
	H = MatrixFromRows(
		[]complex128{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		[]complex128{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	)
	// S is the phase gate (sqrt of Z).
	S = MatrixFromRows(
		[]complex128{1, 0},
		[]complex128{0, 1i},
	)
	// Sdag is the inverse phase gate.
	Sdag = MatrixFromRows(
		[]complex128{1, 0},
		[]complex128{0, -1i},
	)
	// T is the π/8 gate (sqrt of S).
	T = MatrixFromRows(
		[]complex128{1, 0},
		[]complex128{0, cmplx.Exp(1i * math.Pi / 4)},
	)
	// Tdag is the inverse T gate.
	Tdag = MatrixFromRows(
		[]complex128{1, 0},
		[]complex128{0, cmplx.Exp(-1i * math.Pi / 4)},
	)
	// SqrtX is the square root of X (X90 pulse), native on transmons.
	SqrtX = MatrixFromRows(
		[]complex128{0.5 + 0.5i, 0.5 - 0.5i},
		[]complex128{0.5 - 0.5i, 0.5 + 0.5i},
	)
)

// Two-qubit gate matrices using the convention that the FIRST operand qubit
// is the low-order bit of the 2-bit index (basis order |q1 q0>).
var (
	// CNOT with qubit operand order (control, target): control is bit 0.
	CNOT = MatrixFromRows(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, 0, 0, 1},
		[]complex128{0, 0, 1, 0},
		[]complex128{0, 1, 0, 0},
	)
	// CZ is the controlled-Z gate (symmetric in its operands).
	CZ = MatrixFromRows(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, 1, 0, 0},
		[]complex128{0, 0, 1, 0},
		[]complex128{0, 0, 0, -1},
	)
	// SWAP exchanges two qubits.
	SWAP = MatrixFromRows(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, 0, 1, 0},
		[]complex128{0, 1, 0, 0},
		[]complex128{0, 0, 0, 1},
	)
	// ISWAP exchanges two qubits and adds an i phase on the swapped states.
	ISWAP = MatrixFromRows(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, 0, 1i, 0},
		[]complex128{0, 1i, 0, 0},
		[]complex128{0, 0, 0, 1},
	)
)

// RX returns the rotation exp(-iθX/2).
func RX(theta float64) Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return MatrixFromRows(
		[]complex128{c, s},
		[]complex128{s, c},
	)
}

// RY returns the rotation exp(-iθY/2).
func RY(theta float64) Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return MatrixFromRows(
		[]complex128{c, -s},
		[]complex128{s, c},
	)
}

// RZ returns the rotation exp(-iθZ/2).
func RZ(theta float64) Matrix {
	return MatrixFromRows(
		[]complex128{cmplx.Exp(complex(0, -theta/2)), 0},
		[]complex128{0, cmplx.Exp(complex(0, theta/2))},
	)
}

// Phase returns diag(1, e^{iθ}), the phase-shift gate.
func Phase(theta float64) Matrix {
	return MatrixFromRows(
		[]complex128{1, 0},
		[]complex128{0, cmplx.Exp(complex(0, theta))},
	)
}

// U3 returns the generic single-qubit rotation with Euler angles
// (θ, φ, λ), following the OpenQASM u3 convention.
func U3(theta, phi, lambda float64) Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return MatrixFromRows(
		[]complex128{c, -cmplx.Exp(complex(0, lambda)) * s},
		[]complex128{cmplx.Exp(complex(0, phi)) * s, cmplx.Exp(complex(0, phi+lambda)) * c},
	)
}

// CPhase returns the controlled phase gate diag(1,1,1,e^{iθ}).
func CPhase(theta float64) Matrix {
	m := Identity(4)
	m.Set(3, 3, cmplx.Exp(complex(0, theta)))
	return m
}

// Controlled lifts a single-qubit gate u to its controlled two-qubit
// version with the control on bit 0 and the target on bit 1.
func Controlled(u Matrix) Matrix {
	if u.N != 2 {
		panic("quantum: Controlled requires a 2x2 matrix")
	}
	m := Identity(4)
	// Basis order |q1 q0> with control = q0: the control-set states are
	// indices 1 (q1=0,q0=1) and 3 (q1=1,q0=1); target is q1.
	m.Set(1, 1, u.At(0, 0))
	m.Set(1, 3, u.At(0, 1))
	m.Set(3, 1, u.At(1, 0))
	m.Set(3, 3, u.At(1, 1))
	return m
}

// Toffoli is the doubly-controlled NOT on 3 qubits; controls are bits 0
// and 1, target is bit 2.
var Toffoli = toffoli()

func toffoli() Matrix {
	m := Identity(8)
	// Swap amplitudes of |011> (3) and |111> (7): both controls set.
	m.Set(3, 3, 0)
	m.Set(7, 7, 0)
	m.Set(3, 7, 1)
	m.Set(7, 3, 1)
	return m
}

// Fredkin is the controlled-SWAP on 3 qubits; control is bit 0, the
// swapped pair are bits 1 and 2.
var Fredkin = fredkin()

func fredkin() Matrix {
	m := Identity(8)
	// With control q0=1, swap q1 and q2: indices 3 (011) and 5 (101).
	m.Set(3, 3, 0)
	m.Set(5, 5, 0)
	m.Set(3, 5, 1)
	m.Set(5, 3, 1)
	return m
}
