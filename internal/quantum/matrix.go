// Package quantum provides the linear-algebra substrate for the full-stack
// quantum accelerator: complex matrices, the standard gate set, state
// vectors with in-place gate application, and measurement.
//
// Convention: qubit 0 is the least-significant bit of a basis-state index.
// Basis state |q_{n-1} ... q_1 q_0> corresponds to index
// q_0 + 2*q_1 + ... + 2^{n-1}*q_{n-1}.
package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense square complex matrix in row-major order.
type Matrix struct {
	N    int          // dimension
	Data []complex128 // row-major, len N*N
}

// NewMatrix returns an N×N zero matrix.
func NewMatrix(n int) Matrix {
	return Matrix{N: n, Data: make([]complex128, n*n)}
}

// MatrixFromRows builds a matrix from row slices. All rows must have equal
// length, and the matrix must be square.
func MatrixFromRows(rows ...[]complex128) Matrix {
	n := len(rows)
	m := NewMatrix(n)
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("quantum: row %d has %d entries, want %d", i, len(r), n))
		}
		copy(m.Data[i*n:(i+1)*n], r)
	}
	return m
}

// Identity returns the N×N identity matrix.
func Identity(n int) Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m Matrix) At(i, j int) complex128 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m Matrix) Set(i, j int, v complex128) { m.Data[i*m.N+j] = v }

// Mul returns the matrix product m·other.
func (m Matrix) Mul(other Matrix) Matrix {
	if m.N != other.N {
		panic("quantum: dimension mismatch in Mul")
	}
	n := m.N
	out := NewMatrix(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a := m.Data[i*n+k]
			if a == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += a * other.Data[k*n+j]
			}
		}
	}
	return out
}

// Add returns the element-wise sum m+other.
func (m Matrix) Add(other Matrix) Matrix {
	if m.N != other.N {
		panic("quantum: dimension mismatch in Add")
	}
	out := NewMatrix(m.N)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + other.Data[i]
	}
	return out
}

// Scale returns s·m.
func (m Matrix) Scale(s complex128) Matrix {
	out := NewMatrix(m.N)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	return out
}

// Dagger returns the conjugate transpose of m.
func (m Matrix) Dagger() Matrix {
	n := m.N
	out := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*n+i] = cmplx.Conj(m.Data[i*n+j])
		}
	}
	return out
}

// Equal reports whether m and other agree element-wise within tol.
func (m Matrix) Equal(other Matrix, tol float64) bool {
	if m.N != other.N {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// EqualUpToPhase reports whether m equals e^{iφ}·other for some global
// phase φ, within tol.
func (m Matrix) EqualUpToPhase(other Matrix, tol float64) bool {
	if m.N != other.N {
		return false
	}
	// Find the first element of other with significant magnitude and derive
	// the candidate phase from it.
	var phase complex128
	found := false
	for i := range other.Data {
		if cmplx.Abs(other.Data[i]) > tol {
			if cmplx.Abs(m.Data[i]) <= tol {
				return false
			}
			phase = m.Data[i] / other.Data[i]
			found = true
			break
		}
	}
	if !found {
		return m.Equal(other, tol)
	}
	if math.Abs(cmplx.Abs(phase)-1) > tol {
		return false
	}
	return m.Equal(other.Scale(phase), tol)
}

// IsUnitary reports whether m†·m = I within tol.
func (m Matrix) IsUnitary(tol float64) bool {
	return m.Dagger().Mul(m).Equal(Identity(m.N), tol)
}

// Trace returns the sum of diagonal elements.
func (m Matrix) Trace() complex128 {
	var t complex128
	for i := 0; i < m.N; i++ {
		t += m.Data[i*m.N+i]
	}
	return t
}

// String renders the matrix for debugging.
func (m Matrix) String() string {
	s := ""
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			s += fmt.Sprintf("%6.3f%+6.3fi ", real(m.At(i, j)), imag(m.At(i, j)))
		}
		s += "\n"
	}
	return s
}
