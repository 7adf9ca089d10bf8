package qx

import (
	"math"
	"math/rand"

	"repro/internal/quantum"
)

// NoiseModel parameterises realistic-qubit execution. The zero value is a
// noise-free model; use nil for the perfect-qubit fast path.
type NoiseModel struct {
	// DepolarizingProb is the probability that each single-qubit gate is
	// followed by a uniformly random Pauli error on its operand.
	DepolarizingProb float64
	// TwoQubitDepolarizingProb is the per-operand error probability after
	// a two-qubit gate. Two-qubit gates dominate NISQ error budgets.
	TwoQubitDepolarizingProb float64
	// T1 and T2 are relaxation/dephasing times in nanoseconds. Zero
	// disables the corresponding channel.
	T1, T2 float64
	// GateTimeNs is the wall-clock duration ascribed to each gate for
	// decoherence purposes.
	GateTimeNs float64
	// ReadoutError is the probability that a measurement outcome is
	// flipped classically.
	ReadoutError float64
}

// Depolarizing returns a model with uniform per-gate depolarising
// probability p (two-qubit gates use 2p, reflecting their higher physical
// error rates) — the "simplistic error model" the paper names as the QX
// baseline.
func Depolarizing(p float64) *NoiseModel {
	return &NoiseModel{DepolarizingProb: p, TwoQubitDepolarizingProb: 2 * p}
}

// Superconducting returns a model with parameters typical of the
// transmon devices the paper's experimental stack targets: T1 ≈ 30 µs,
// T2 ≈ 20 µs, 20 ns single-qubit gates, 0.1 % gate error, 1 % readout
// error.
func Superconducting() *NoiseModel {
	return &NoiseModel{
		DepolarizingProb:         1e-3,
		TwoQubitDepolarizingProb: 5e-3,
		T1:                       30_000,
		T2:                       20_000,
		GateTimeNs:               20,
		ReadoutError:             0.01,
	}
}

// IsZero reports whether the model introduces no errors at all.
func (m *NoiseModel) IsZero() bool {
	if m == nil {
		return true
	}
	return m.DepolarizingProb == 0 && m.TwoQubitDepolarizingProb == 0 &&
		m.T1 == 0 && m.T2 == 0 && m.ReadoutError == 0
}

// ampDampingGamma returns the amplitude-damping probability for one gate
// duration.
func (m *NoiseModel) ampDampingGamma() float64 {
	if m.T1 <= 0 || m.GateTimeNs <= 0 {
		return 0
	}
	return 1 - math.Exp(-m.GateTimeNs/m.T1)
}

// dephasingLambda returns the phase-flip probability for one gate
// duration. Pure dephasing rate is 1/T2 − 1/(2·T1); the channel applies Z
// with probability (1−exp(−t·rate))/2.
func (m *NoiseModel) dephasingLambda() float64 {
	if m.T2 <= 0 || m.GateTimeNs <= 0 {
		return 0
	}
	rate := 1 / m.T2
	if m.T1 > 0 {
		rate -= 1 / (2 * m.T1)
		if rate < 0 {
			rate = 0
		}
	}
	return (1 - math.Exp(-m.GateTimeNs*rate)) / 2
}

// CliffordCompatible reports whether every channel in the model maps
// Pauli operators to Pauli operators, so a stochastic trajectory stays
// inside the stabilizer formalism: depolarizing and dephasing inject
// sampled Paulis and readout error flips classical bits, all fine, but
// amplitude damping (a finite T1 with a gate time) applies a
// non-unitary Kraus jump no tableau can represent. The stabilizer
// engine rejects incompatible models; Dispatch sends them to the dense
// path.
func (m *NoiseModel) CliffordCompatible() bool {
	return m.IsZero() || m.ampDampingGamma() == 0
}

// applyPauliError applies a uniformly random Pauli to qubit q with
// probability p.
func applyPauliError(s *quantum.State, q int, p float64, rng *rand.Rand) bool {
	if p <= 0 || rng.Float64() >= p {
		return false
	}
	s.ApplyOne(quantum.RandomPauli(rng), q)
	return true
}

// applyAmplitudeDamping applies one trajectory step of the amplitude
// damping channel with decay probability gamma to qubit q.
func applyAmplitudeDamping(s *quantum.State, q int, gamma float64, rng *rand.Rand) {
	if gamma <= 0 {
		return
	}
	// Kraus operators: K0 = diag(1, sqrt(1-γ)), K1 = |0><1|·sqrt(γ).
	// P(jump) = γ·P(q=1).
	p1 := s.ProbOne(q)
	pJump := gamma * p1
	if rng.Float64() < pJump {
		// Jump: project to |1> then flip to |0> (i.e. apply K1 and
		// renormalise).
		s.ProjectQubit(q, 1)
		s.ApplyOne(quantum.X, q)
		return
	}
	// No-jump evolution: apply K0 and renormalise.
	k0 := quantum.MatrixFromRows(
		[]complex128{1, 0},
		[]complex128{0, complex(math.Sqrt(1-gamma), 0)},
	)
	s.ApplyOne(k0, q)
	s.Normalize()
}

// applyDephasing applies a Z flip to qubit q with probability lambda.
func applyDephasing(s *quantum.State, q int, lambda float64, rng *rand.Rand) {
	if lambda <= 0 || rng.Float64() >= lambda {
		return
	}
	s.ApplyOne(quantum.Z, q)
}
