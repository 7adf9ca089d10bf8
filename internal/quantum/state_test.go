package quantum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewStateIsZeroKet(t *testing.T) {
	s := NewState(3)
	if s.Dim() != 8 {
		t.Fatalf("dim = %d, want 8", s.Dim())
	}
	if s.Amplitude(0) != 1 {
		t.Error("amp(|000>) != 1")
	}
	if math.Abs(s.Norm()-1) > tol {
		t.Error("norm != 1")
	}
}

func TestApplyOneHadamard(t *testing.T) {
	s := NewState(1)
	s.ApplyOne(H, 0)
	want := 1 / math.Sqrt2
	if math.Abs(real(s.Amplitude(0))-want) > tol || math.Abs(real(s.Amplitude(1))-want) > tol {
		t.Errorf("H|0> = %v", s)
	}
	s.ApplyOne(H, 0)
	if math.Abs(real(s.Amplitude(0))-1) > tol {
		t.Error("HH|0> != |0>")
	}
}

func TestApplyOneOnTargetedQubit(t *testing.T) {
	s := NewState(3)
	s.ApplyOne(X, 1)
	if s.Amplitude(2) != 1 { // |010> = index 2
		t.Errorf("X on qubit 1: state %v", s)
	}
}

func TestBellState(t *testing.T) {
	s := NewState(2)
	s.ApplyOne(H, 0)
	s.ApplyTwo(CNOT, 0, 1) // control qubit 0, target qubit 1
	want := 1 / math.Sqrt2
	if math.Abs(real(s.Amplitude(0))-want) > tol {
		t.Errorf("amp(00) = %v", s.Amplitude(0))
	}
	if math.Abs(real(s.Amplitude(3))-want) > tol {
		t.Errorf("amp(11) = %v", s.Amplitude(3))
	}
	if p := s.ProbOne(0); math.Abs(p-0.5) > tol {
		t.Errorf("P(q0=1) = %v, want 0.5", p)
	}
}

func TestGHZ(t *testing.T) {
	n := 5
	s := NewState(n)
	s.ApplyOne(H, 0)
	for q := 1; q < n; q++ {
		s.ApplyTwo(CNOT, q-1, q)
	}
	want := 1 / math.Sqrt2
	if math.Abs(real(s.Amplitude(0))-want) > tol {
		t.Error("GHZ |0...0> amplitude wrong")
	}
	if math.Abs(real(s.Amplitude(s.Dim()-1))-want) > tol {
		t.Error("GHZ |1...1> amplitude wrong")
	}
}

func TestApplyGeneralMatchesSpecialised(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := RandomUnitary(4, rng)
	a := RandomState(4, rand.New(rand.NewSource(5)))
	b := a.Clone()
	a.ApplyTwo(u, 1, 3)
	b.Apply(u, 1, 3)
	if f := a.Fidelity(b); math.Abs(f-1) > 1e-9 {
		t.Errorf("general vs specialised two-qubit apply fidelity %v", f)
	}
}

func TestApplyThreeQubitToffoli(t *testing.T) {
	s := NewState(3)
	s.ApplyOne(X, 0)
	s.ApplyOne(X, 1)
	s.Apply(Toffoli, 0, 1, 2)
	if s.Amplitude(7) != 1 {
		t.Errorf("Toffoli|011> should be |111>, got %v", s)
	}
	// Single control set: no flip.
	s2 := NewState(3)
	s2.ApplyOne(X, 0)
	s2.Apply(Toffoli, 0, 1, 2)
	if s2.Amplitude(1) != 1 {
		t.Errorf("Toffoli|001> should stay, got %v", s2)
	}
}

func TestControlledOneMatchesCNOT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := RandomState(3, rng)
	b := a.Clone()
	a.ApplyTwo(CNOT, 0, 2) // control 0, target 2
	b.ApplyControlledOne(X, 2, 0)
	if f := a.Fidelity(b); math.Abs(f-1) > 1e-9 {
		t.Errorf("controlled apply mismatch, fidelity %v", f)
	}
}

func TestMultiControlled(t *testing.T) {
	a := NewState(3)
	a.ApplyOne(X, 0)
	a.ApplyOne(X, 1)
	a.ApplyControlledOne(X, 2, 0, 1)
	if a.Amplitude(7) != 1 {
		t.Errorf("CCX via controls failed: %v", a)
	}
}

func TestProjectQubit(t *testing.T) {
	s := NewState(2)
	s.ApplyOne(H, 0)
	s.ApplyTwo(CNOT, 0, 1)
	s.ProjectQubit(0, 1)
	if math.Abs(real(s.Amplitude(3))-1) > tol {
		t.Errorf("projection of Bell onto q0=1 should give |11>, got %v", s)
	}
}

func TestMeasureQubitStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ones := 0
	const shots = 2000
	for i := 0; i < shots; i++ {
		s := NewState(1)
		s.ApplyOne(RY(2*math.Asin(math.Sqrt(0.3))), 0) // P(1)=0.3
		ones += s.MeasureQubit(0, rng)
	}
	p := float64(ones) / shots
	if math.Abs(p-0.3) > 0.05 {
		t.Errorf("measured P(1) = %v, want ≈0.3", p)
	}
}

func TestMeasureAllCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewState(3)
	s.ApplyOne(H, 0)
	s.ApplyTwo(CNOT, 0, 1)
	s.ApplyTwo(CNOT, 1, 2)
	idx := s.MeasureAll(rng)
	if idx != 0 && idx != 7 {
		t.Errorf("GHZ measurement gave %d, want 0 or 7", idx)
	}
	if s.Amplitude(idx) != 1 {
		t.Error("state not collapsed")
	}
}

// <Z> on qubit 0 is P(0) − P(1) = 1 − 2·ProbOne(0).
func TestExpectationZ(t *testing.T) {
	s := NewState(1)
	z := func() float64 { return 1 - 2*s.ProbOne(0) }
	if math.Abs(z()-1) > tol {
		t.Error("<Z> on |0> != 1")
	}
	s.ApplyOne(X, 0)
	if math.Abs(z()+1) > tol {
		t.Error("<Z> on |1> != -1")
	}
	s.ApplyOne(H, 0)
	if math.Abs(z()) > tol {
		t.Error("<Z> on |-> != 0")
	}
}

func TestPrepareBasisAndSample(t *testing.T) {
	s := NewState(4)
	s.PrepareBasis(9)
	rng := rand.New(rand.NewSource(1))
	if got := s.SampleIndex(rng); got != 9 {
		t.Errorf("sample of basis state = %d, want 9", got)
	}
}

// Property: every unitary application preserves the norm.
func TestNormPreservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		s := RandomState(n, rng)
		u1 := RandomUnitary(2, rng)
		u2 := RandomUnitary(4, rng)
		s.ApplyOne(u1, rng.Intn(n))
		q0 := rng.Intn(n)
		q1 := (q0 + 1 + rng.Intn(n-1)) % n
		s.ApplyTwo(u2, q0, q1)
		return math.Abs(s.Norm()-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: applying U then U† restores the original state.
func TestUnitaryInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		s := RandomState(n, rng)
		orig := s.Clone()
		u := RandomUnitary(4, rng)
		q0, q1 := 0, 1
		s.ApplyTwo(u, q0, q1)
		s.ApplyTwo(u.Dagger(), q0, q1)
		return math.Abs(s.Fidelity(orig)-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := NewState(2)
	c := s.Clone()
	s.ApplyOne(X, 0)
	if c.Amplitude(0) != 1 {
		t.Error("clone mutated by original")
	}
}

func TestCopyFromReloadsSnapshot(t *testing.T) {
	base := NewState(2)
	base.ApplyOne(H, 0)
	scratch := NewState(2)
	scratch.SetParallelism(3)
	scratch.CopyFrom(base)
	if math.Abs(scratch.Fidelity(base)-1) > 1e-12 || scratch.workers != 3 {
		t.Errorf("CopyFrom: fidelity %v, parallelism %d", scratch.Fidelity(base), scratch.workers)
	}
	scratch.ApplyOne(X, 1)
	if base.Amplitude(2) != 0 {
		t.Error("snapshot mutated through the copy")
	}
	defer func() {
		if recover() == nil {
			t.Error("CopyFrom accepted a qubit count mismatch")
		}
	}()
	scratch.CopyFrom(NewState(3))
}

func TestStateString(t *testing.T) {
	s := NewState(2)
	if got := s.String(); got == "" {
		t.Error("empty String()")
	}
}
