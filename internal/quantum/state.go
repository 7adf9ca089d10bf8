package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// State is a pure quantum state over n qubits, stored as a dense vector of
// 2^n complex amplitudes. Qubit 0 is the least-significant bit of the
// basis-state index.
type State struct {
	n    int
	amps []complex128
	// workers is the gate-kernel parallelism (see SetParallelism); <=1
	// keeps every kernel serial.
	workers int
}

// NewState returns the n-qubit state initialised to |0...0>.
func NewState(n int) *State {
	if n < 0 || n > 30 {
		panic(fmt.Sprintf("quantum: unsupported qubit count %d", n))
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n))}
	s.amps[0] = 1
	return s
}

// NumQubits returns the number of qubits in the state.
func (s *State) NumQubits() int { return s.n }

// Dim returns the Hilbert-space dimension 2^n.
func (s *State) Dim() int { return len(s.amps) }

// Amplitude returns the amplitude of basis state idx.
func (s *State) Amplitude(idx int) complex128 { return s.amps[idx] }

// SetAmplitude assigns the amplitude of basis state idx. The caller is
// responsible for renormalising.
func (s *State) SetAmplitude(idx int, v complex128) { s.amps[idx] = v }

// Clone returns a deep copy of the state (including its parallelism
// setting).
func (s *State) Clone() *State {
	c := &State{n: s.n, amps: make([]complex128, len(s.amps)), workers: s.workers}
	copy(c.amps, s.amps)
	return c
}

// CopyFrom overwrites the amplitudes with src's without allocating, so
// a scratch state can be reloaded from a snapshot once per shot. Both
// states must have the same qubit count; s keeps its own parallelism.
func (s *State) CopyFrom(src *State) {
	if s.n != src.n {
		panic("quantum: qubit count mismatch in CopyFrom")
	}
	copy(s.amps, src.amps)
}

// Reset returns the state to |0...0>.
func (s *State) Reset() {
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[0] = 1
}

// PrepareBasis sets the state to the computational basis state idx.
func (s *State) PrepareBasis(idx int) {
	if idx < 0 || idx >= len(s.amps) {
		panic("quantum: basis index out of range")
	}
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[idx] = 1
}

// Norm returns the 2-norm of the amplitude vector (1 for a valid state).
func (s *State) Norm() float64 {
	var t float64
	for _, a := range s.amps {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(t)
}

// Normalize rescales the state to unit norm. It is a no-op on the zero
// vector.
func (s *State) Normalize() {
	n := s.Norm()
	if n == 0 {
		return
	}
	inv := complex(1/n, 0)
	for i := range s.amps {
		s.amps[i] *= inv
	}
}

// InnerProduct returns <s|t>.
func (s *State) InnerProduct(t *State) complex128 {
	if s.n != t.n {
		panic("quantum: qubit count mismatch in InnerProduct")
	}
	var sum complex128
	for i, a := range s.amps {
		sum += cmplx.Conj(a) * t.amps[i]
	}
	return sum
}

// Fidelity returns |<s|t>|^2.
func (s *State) Fidelity(t *State) float64 {
	ip := s.InnerProduct(t)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// ApplyOne applies the 2×2 unitary u to qubit q in place. Amplitude pairs
// are independent, so the loop fans out across goroutines when kernel
// parallelism is enabled (see SetParallelism).
func (s *State) ApplyOne(u Matrix, q int) {
	if u.N != 2 {
		panic("quantum: ApplyOne requires a 2x2 matrix")
	}
	s.checkQubit(q)
	bit := 1 << uint(q)
	low := bit - 1
	u00, u01 := u.Data[0], u.Data[1]
	u10, u11 := u.Data[2], u.Data[3]
	s.parRange(len(s.amps)/2, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			i0 := expand1(p, low)
			i1 := i0 | bit
			a0, a1 := s.amps[i0], s.amps[i1]
			s.amps[i0] = u00*a0 + u01*a1
			s.amps[i1] = u10*a0 + u11*a1
		}
	})
}

// ApplyTwo applies the 4×4 unitary u to the qubit pair (q0, q1), where q0
// indexes bit 0 of the gate's 2-bit basis and q1 bit 1 (basis order
// |q1 q0>).
func (s *State) ApplyTwo(u Matrix, q0, q1 int) {
	if u.N != 4 {
		panic("quantum: ApplyTwo requires a 4x4 matrix")
	}
	s.checkQubit(q0)
	s.checkQubit(q1)
	if q0 == q1 {
		panic("quantum: ApplyTwo requires distinct qubits")
	}
	b0 := 1 << uint(q0)
	b1 := 1 << uint(q1)
	lowA, lowB := pairMasks(q0, q1)
	s.parRange(len(s.amps)/4, func(lo, hi int) {
		var idx [4]int
		var in, out [4]complex128
		for p := lo; p < hi; p++ {
			i := expand2(p, lowA, lowB)
			idx[0] = i
			idx[1] = i | b0
			idx[2] = i | b1
			idx[3] = i | b0 | b1
			for k := 0; k < 4; k++ {
				in[k] = s.amps[idx[k]]
			}
			for r := 0; r < 4; r++ {
				var acc complex128
				for c := 0; c < 4; c++ {
					acc += u.Data[r*4+c] * in[c]
				}
				out[r] = acc
			}
			for k := 0; k < 4; k++ {
				s.amps[idx[k]] = out[k]
			}
		}
	})
}

// Apply applies a k-qubit unitary u to the listed qubits; qubits[0] maps to
// bit 0 of the gate's k-bit basis index, qubits[1] to bit 1, and so on.
func (s *State) Apply(u Matrix, qubits ...int) {
	k := len(qubits)
	switch k {
	case 1:
		s.ApplyOne(u, qubits[0])
		return
	case 2:
		s.ApplyTwo(u, qubits[0], qubits[1])
		return
	}
	if u.N != 1<<uint(k) {
		panic(fmt.Sprintf("quantum: matrix dim %d does not match %d qubits", u.N, k))
	}
	seen := map[int]bool{}
	mask := 0
	for _, q := range qubits {
		s.checkQubit(q)
		if seen[q] {
			panic("quantum: duplicate qubit in Apply")
		}
		seen[q] = true
		mask |= 1 << uint(q)
	}
	sub := 1 << uint(k)
	lows := maskLows(mask, s.n)
	// Enumerate the 2^(n-k) amplitude groups compactly so every chunk
	// carries equal work regardless of which qubits the gate acts on.
	s.parRange(len(s.amps)>>uint(k), func(lo, hi int) {
		idx := make([]int, sub)
		in := make([]complex128, sub)
		for p := lo; p < hi; p++ {
			i := expandN(p, lows)
			for g := 0; g < sub; g++ {
				j := i
				for b := 0; b < k; b++ {
					if g&(1<<uint(b)) != 0 {
						j |= 1 << uint(qubits[b])
					}
				}
				idx[g] = j
				in[g] = s.amps[j]
			}
			for r := 0; r < sub; r++ {
				var acc complex128
				for c := 0; c < sub; c++ {
					acc += u.Data[r*sub+c] * in[c]
				}
				s.amps[idx[r]] = acc
			}
		}
	})
}

// ApplyControlledOne applies u to target when all control qubits are 1.
func (s *State) ApplyControlledOne(u Matrix, target int, controls ...int) {
	if u.N != 2 {
		panic("quantum: ApplyControlledOne requires a 2x2 matrix")
	}
	s.checkQubit(target)
	cmask := 0
	for _, c := range controls {
		s.checkQubit(c)
		if c == target {
			panic("quantum: control equals target")
		}
		cmask |= 1 << uint(c)
	}
	bit := 1 << uint(target)
	u00, u01 := u.Data[0], u.Data[1]
	u10, u11 := u.Data[2], u.Data[3]
	// Enumerate only the active groups — control bits set, target clear —
	// compactly, so work stays balanced across parallel chunks and the
	// serial path never scans inactive indices.
	lows := maskLows(cmask|bit, s.n)
	s.parRange(len(s.amps)>>uint(len(lows)), func(lo, hi int) {
		for p := lo; p < hi; p++ {
			i0 := expandN(p, lows) | cmask
			i1 := i0 | bit
			a0, a1 := s.amps[i0], s.amps[i1]
			s.amps[i0] = u00*a0 + u01*a1
			s.amps[i1] = u10*a0 + u11*a1
		}
	})
}

// ProbOne returns the probability that measuring qubit q yields 1.
func (s *State) ProbOne(q int) float64 {
	s.checkQubit(q)
	bit := 1 << uint(q)
	var p float64
	for i, a := range s.amps {
		if i&bit != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// Probabilities returns |amp|^2 for every basis state.
func (s *State) Probabilities() []float64 {
	out := make([]float64, len(s.amps))
	for i, a := range s.amps {
		out[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return out
}

// MeasureQubit performs a projective Z-measurement of qubit q, collapsing
// the state, and returns the outcome (0 or 1).
func (s *State) MeasureQubit(q int, rng *rand.Rand) int {
	outcome := DrawOutcome(rng, s.ProbOne(q))
	s.ProjectQubit(q, outcome)
	return outcome
}

// DrawOutcome draws one Z-measurement outcome: 1 when a uniform draw
// from rng falls below p1, the probability of reading 1, else 0. Every
// dense measurement draws through it, so an engine that replays a stored
// p1 consumes the PRNG exactly as MeasureQubit would.
func DrawOutcome(rng *rand.Rand, p1 float64) int {
	if rng.Float64() < p1 {
		return 1
	}
	return 0
}

// ProjectQubit projects qubit q onto the given outcome and renormalises.
// Zeroing the non-matching amplitudes and accumulating the surviving norm
// happen in one pass — this sits inside MeasureQubit, which runs in every
// noisy shot loop. A zero-probability outcome leaves the zero vector, as
// Normalize would.
func (s *State) ProjectQubit(q, outcome int) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	want := 0
	if outcome == 1 {
		want = bit
	}
	var t float64
	for i := range s.amps {
		if i&bit != want {
			s.amps[i] = 0
			continue
		}
		a := s.amps[i]
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	if t == 0 {
		return
	}
	inv := complex(1/math.Sqrt(t), 0)
	low := bit - 1
	for p := 0; p < len(s.amps)/2; p++ {
		s.amps[expand1(p, low)|want] *= inv
	}
}

// SampleIndex draws a basis-state index from the measurement distribution
// without collapsing the state.
func (s *State) SampleIndex(rng *rand.Rand) int {
	r := rng.Float64()
	var acc float64
	for i, a := range s.amps {
		acc += real(a)*real(a) + imag(a)*imag(a)
		if r < acc {
			return i
		}
	}
	return len(s.amps) - 1
}

// MeasureAll measures every qubit, collapsing the state to one basis state,
// and returns that basis index.
func (s *State) MeasureAll(rng *rand.Rand) int {
	idx := s.SampleIndex(rng)
	s.PrepareBasis(idx)
	return idx
}

func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("quantum: qubit %d out of range [0,%d)", q, s.n))
	}
}

// String renders the non-negligible amplitudes in ket notation.
func (s *State) String() string {
	out := ""
	for i, a := range s.amps {
		if cmplx.Abs(a) < 1e-9 {
			continue
		}
		if out != "" {
			out += " + "
		}
		out += fmt.Sprintf("(%.4f%+.4fi)|%0*b>", real(a), imag(a), s.n, i)
	}
	if out == "" {
		out = "0"
	}
	return out
}
