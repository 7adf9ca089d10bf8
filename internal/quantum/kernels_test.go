package quantum

import (
	"math"
	"math/rand"
	"testing"
)

// randomState returns a normalised random n-qubit state.
func randomState(n int, rng *rand.Rand) *State {
	s := NewState(n)
	for i := 0; i < s.Dim(); i++ {
		s.amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	s.Normalize()
	return s
}

func statesMatch(t *testing.T, label string, a, b *State, tol float64) {
	t.Helper()
	if a.Dim() != b.Dim() {
		t.Fatalf("%s: dimension mismatch %d vs %d", label, a.Dim(), b.Dim())
	}
	for i := 0; i < a.Dim(); i++ {
		d := a.amps[i] - b.amps[i]
		if math.Hypot(real(d), imag(d)) > tol {
			t.Fatalf("%s: amplitude %d differs: %v vs %v", label, i, a.amps[i], b.amps[i])
		}
	}
}

// Every specialized kernel must reproduce the generic matrix path exactly
// (signed zeros aside, which compare equal).
func TestSpecializedKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 5
	oneQubit := []struct {
		name string
		run  func(s *State, q int)
		gate Matrix
	}{
		{"x", func(s *State, q int) { s.ApplyX(q) }, X},
		{"y", func(s *State, q int) { s.ApplyY(q) }, Y},
		{"z", func(s *State, q int) { s.ApplyDiag(q, 1, -1) }, Z},
		{"s", func(s *State, q int) { s.ApplyDiag(q, S.Data[0], S.Data[3]) }, S},
		{"t", func(s *State, q int) { s.ApplyDiag(q, T.Data[0], T.Data[3]) }, T},
		{"rz", func(s *State, q int) {
			m := RZ(0.37)
			s.ApplyDiag(q, m.Data[0], m.Data[3])
		}, RZ(0.37)},
	}
	for _, tc := range oneQubit {
		for q := 0; q < n; q++ {
			a := randomState(n, rng)
			b := a.Clone()
			tc.run(a, q)
			b.ApplyOne(tc.gate, q)
			statesMatch(t, tc.name, a, b, 0)
		}
	}

	twoQubit := []struct {
		name string
		run  func(s *State, q0, q1 int)
		gate Matrix
	}{
		{"cnot", func(s *State, q0, q1 int) { s.ApplyCNOT(q0, q1) }, CNOT},
		{"cz", func(s *State, q0, q1 int) { s.ApplyCZ(q0, q1) }, CZ},
		{"swap", func(s *State, q0, q1 int) { s.ApplySWAP(q0, q1) }, SWAP},
		{"cphase", func(s *State, q0, q1 int) {
			s.ApplyCPhase(q0, q1, CPhase(1.1).Data[15])
		}, CPhase(1.1)},
	}
	for _, tc := range twoQubit {
		for q0 := 0; q0 < n; q0++ {
			for q1 := 0; q1 < n; q1++ {
				if q0 == q1 {
					continue
				}
				a := randomState(n, rng)
				b := a.Clone()
				tc.run(a, q0, q1)
				b.ApplyTwo(tc.gate, q0, q1)
				statesMatch(t, tc.name, a, b, 0)
			}
		}
	}
}

// Parallel kernel application must be bitwise identical to serial: the
// amplitude groups are disjoint, only the iteration order changes.
func TestParallelKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 14 // 16384 amplitudes, above parallelThreshold
	serial := randomState(n, rng)
	par := serial.Clone()
	par.SetParallelism(4)
	if par.workers != 4 {
		t.Fatalf("workers = %d, want 4", par.workers)
	}

	apply := func(s *State) {
		s.ApplyOne(H, 3)
		s.ApplyX(0)
		s.ApplyY(5)
		s.ApplyDiag(9, T.Data[0], T.Data[3])
		s.ApplyTwo(CNOT, 2, 11)
		s.ApplyCNOT(7, 1)
		s.ApplyCZ(4, 13)
		s.ApplyCPhase(6, 12, CPhase(0.9).Data[15])
		s.ApplySWAP(8, 10)
		s.ApplyControlledOne(RZ(0.4), 2, 9)
		s.Apply(Toffoli, 1, 4, 7)
	}
	apply(serial)
	apply(par)
	statesMatch(t, "parallel vs serial", serial, par, 0)
}

func TestSetParallelismClamps(t *testing.T) {
	s := NewState(2)
	s.SetParallelism(-3)
	if s.workers != 1 {
		t.Errorf("negative workers should clamp to 1, got %d", s.workers)
	}
	s.AutoParallelism()
	if s.workers < 1 {
		t.Errorf("AutoParallelism gave %d", s.workers)
	}
}

// The fused zero-and-renormalise pass must leave a unit-norm state, and a
// zero-probability projection must leave the zero vector rather than NaN.
func TestProjectQubitOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randomState(6, rng)
	s.ProjectQubit(2, 1)
	if norm := s.Norm(); math.Abs(norm-1) > 1e-12 {
		t.Errorf("projected state norm %v", norm)
	}
	for i := 0; i < s.Dim(); i++ {
		if i&(1<<2) == 0 && s.amps[i] != 0 {
			t.Fatalf("amplitude %d should be projected out", i)
		}
	}

	z := NewState(2) // |00>: outcome 1 on qubit 0 has probability 0
	z.ProjectQubit(0, 1)
	for i := 0; i < z.Dim(); i++ {
		if z.amps[i] != 0 {
			t.Fatalf("impossible projection left amplitude %v at %d", z.amps[i], i)
		}
	}
}

// Gate matrices the kernel calls below take, built once so the calls
// themselves allocate nothing.
var (
	rz03   = RZ(0.3)
	rz04   = RZ(0.4)
	cphase = CPhase(0.7).Data[15]
)

// kernelCalls applies every State kernel once to an n-qubit state (n ≥
// 5), plus ProbOne and ProjectQubit.
var kernelCalls = []struct {
	name string
	run  func(s *State)
}{
	{"ApplyX", func(s *State) { s.ApplyX(1) }},
	{"ApplyY", func(s *State) { s.ApplyY(2) }},
	{"ApplyDiag", func(s *State) { s.ApplyDiag(0, T.Data[0], T.Data[3]) }},
	{"ApplyDiag(d0≠1)", func(s *State) { s.ApplyDiag(3, rz03.Data[0], rz03.Data[3]) }},
	{"ApplyCNOT", func(s *State) { s.ApplyCNOT(4, 0) }},
	{"ApplyCZ", func(s *State) { s.ApplyCZ(1, 3) }},
	{"ApplyCPhase", func(s *State) { s.ApplyCPhase(2, 4, cphase) }},
	{"ApplySWAP", func(s *State) { s.ApplySWAP(0, 4) }},
	{"ApplyOne", func(s *State) { s.ApplyOne(H, 2) }},
	{"ApplyTwo", func(s *State) { s.ApplyTwo(ISWAP, 3, 1) }},
	{"Apply", func(s *State) { s.Apply(Toffoli, 4, 1, 2) }},
	{"ApplyControlledOne", func(s *State) { s.ApplyControlledOne(rz04, 0, 2, 4) }},
	{"ProbOne", func(s *State) { _ = s.ProbOne(3) }},
	{"ProjectQubit", func(s *State) { s.ProjectQubit(1, 0) }},
}

// A kernel on a state below the parallel threshold runs its body inline:
// no closure, no scratch slice, whatever the parallelism setting.
func TestKernelsDoNotAllocate(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := randomState(5, rand.New(rand.NewSource(3)))
		s.SetParallelism(workers)
		for _, k := range kernelCalls {
			if n := testing.AllocsPerRun(20, func() { k.run(s) }); n != 0 {
				t.Errorf("%s at parallelism %d: %.0f allocations, want 0", k.name, workers, n)
			}
		}
	}
}

// Above parallelThreshold every kernel fans out, and each must leave
// the amplitudes bit for bit as its serial run does.
func TestParallelKernelsBitIdentical(t *testing.T) {
	const n = 16 // 2^16 amplitudes: even a three-qubit gate's groups reach the threshold
	if (1<<n)>>3 < parallelThreshold {
		t.Fatal("state too small to fan out every kernel")
	}
	base := randomState(n, rand.New(rand.NewSource(19)))
	for _, k := range kernelCalls {
		serial, par := base.Clone(), base.Clone()
		par.SetParallelism(4)
		k.run(serial)
		k.run(par)
		for i := range serial.amps {
			a, b := serial.amps[i], par.amps[i]
			if math.Float64bits(real(a)) != math.Float64bits(real(b)) || math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
				t.Fatalf("%s: amplitude %d is %v in parallel, %v serially", k.name, i, b, a)
			}
		}
	}
}
