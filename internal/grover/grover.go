// Package grover implements the quantum search primitive of §2.3: Grover
// search and general amplitude amplification, the provably optimal
// unstructured-search algorithm underlying the genome-sequencing
// accelerator. State-level operators give exact algorithm behaviour at
// any size the simulator can hold; a circuit-level construction exercises
// the full compile stack for small registers.
package grover

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/quantum"
)

// Oracle marks solution basis states.
type Oracle func(idx int) bool

// OptimalIterations returns the iteration count ⌊(π/4)·√(N/M)⌋ that
// maximises success probability for M solutions in a size-N space.
func OptimalIterations(n, m int) int {
	if m <= 0 || n <= 0 || m >= n {
		return 0
	}
	return int(math.Floor(math.Pi / 4 * math.Sqrt(float64(n)/float64(m))))
}

// ApplyOracle flips the phase of every marked basis state.
func ApplyOracle(s *quantum.State, oracle Oracle) {
	for idx := 0; idx < s.Dim(); idx++ {
		if oracle(idx) {
			s.SetAmplitude(idx, -s.Amplitude(idx))
		}
	}
}

// ApplyDiffusion applies the inversion-about-mean operator 2|s⟩⟨s|−I
// (with |s⟩ the uniform superposition).
func ApplyDiffusion(s *quantum.State) {
	var mean complex128
	dim := s.Dim()
	for idx := 0; idx < dim; idx++ {
		mean += s.Amplitude(idx)
	}
	mean /= complex(float64(dim), 0)
	for idx := 0; idx < dim; idx++ {
		s.SetAmplitude(idx, 2*mean-s.Amplitude(idx))
	}
}

// ReflectAbout applies 2|ψ⟩⟨ψ|−I for an arbitrary reference state — the
// generalised diffusion of amplitude amplification (needed when the
// initial state is a stored-pattern superposition rather than uniform).
func ReflectAbout(psi, s *quantum.State) {
	if psi.Dim() != s.Dim() {
		panic("grover: dimension mismatch in ReflectAbout")
	}
	ip := psi.InnerProduct(s) // ⟨ψ|s⟩
	for idx := 0; idx < s.Dim(); idx++ {
		s.SetAmplitude(idx, 2*ip*psi.Amplitude(idx)-s.Amplitude(idx))
	}
}

// Result summarises a Grover run.
type Result struct {
	State       *quantum.State
	Iterations  int
	SuccessProb float64 // total probability mass on marked states
}

// Search prepares the uniform superposition over n qubits and runs the
// given number of Grover iterations (0 → optimal count for the measured
// number of solutions).
func Search(n int, oracle Oracle, iterations int) (*Result, error) {
	if n < 1 || n > 24 {
		return nil, fmt.Errorf("grover: unsupported register size %d", n)
	}
	dim := 1 << uint(n)
	m := 0
	for idx := 0; idx < dim; idx++ {
		if oracle(idx) {
			m++
		}
	}
	if m == 0 {
		return nil, fmt.Errorf("grover: oracle marks no solutions")
	}
	if iterations <= 0 {
		iterations = OptimalIterations(dim, m)
		if iterations == 0 {
			iterations = 1
		}
	}
	s := quantum.NewState(n)
	for q := 0; q < n; q++ {
		s.ApplyOne(quantum.H, q)
	}
	for k := 0; k < iterations; k++ {
		ApplyOracle(s, oracle)
		ApplyDiffusion(s)
	}
	return &Result{State: s, Iterations: iterations, SuccessProb: markedMass(s, oracle)}, nil
}

// Amplify runs amplitude amplification from an arbitrary initial state:
// iterations of oracle reflection followed by reflection about the
// initial state.
func Amplify(initial *quantum.State, oracle Oracle, iterations int) *Result {
	s := initial.Clone()
	for k := 0; k < iterations; k++ {
		ApplyOracle(s, oracle)
		ReflectAbout(initial, s)
	}
	return &Result{State: s, Iterations: iterations, SuccessProb: markedMass(s, oracle)}
}

func markedMass(s *quantum.State, oracle Oracle) float64 {
	var p float64
	for idx, prob := range s.Probabilities() {
		if oracle(idx) {
			p += prob
		}
	}
	return p
}

// BuildCircuit constructs a gate-level Grover circuit for a single marked
// state on n ≤ 3 qubits, using only registry gates (H, X, CZ, Toffoli+H)
// so it can flow through cQASM, the compiler and the micro-architecture.
func BuildCircuit(n, target, iterations int) (*circuit.Circuit, error) {
	if n < 2 || n > 3 {
		return nil, fmt.Errorf("grover: circuit construction supports 2 or 3 qubits, got %d", n)
	}
	if target < 0 || target >= 1<<uint(n) {
		return nil, fmt.Errorf("grover: target %d out of range", target)
	}
	if iterations <= 0 {
		iterations = OptimalIterations(1<<uint(n), 1)
		if iterations == 0 {
			iterations = 1
		}
	}
	c := circuit.New(fmt.Sprintf("grover%d_t%d", n, target), n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	// Multi-controlled Z on all qubits (phase flip |1...1>).
	mcz := func() {
		if n == 2 {
			c.CZ(0, 1)
		} else {
			// CCZ = H(2)·Toffoli(0,1,2)·H(2).
			c.H(2)
			c.Toffoli(0, 1, 2)
			c.H(2)
		}
	}
	for k := 0; k < iterations; k++ {
		// Oracle: X-conjugate so the marked state maps to |1...1>.
		for q := 0; q < n; q++ {
			if target&(1<<uint(q)) == 0 {
				c.X(q)
			}
		}
		mcz()
		for q := 0; q < n; q++ {
			if target&(1<<uint(q)) == 0 {
				c.X(q)
			}
		}
		// Diffusion: H X (MCZ) X H.
		for q := 0; q < n; q++ {
			c.H(q)
			c.X(q)
		}
		mcz()
		for q := 0; q < n; q++ {
			c.X(q)
			c.H(q)
		}
	}
	return c, nil
}
