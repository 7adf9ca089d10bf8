package quantum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := RandomUnitary(4, rng)
	if !Identity(4).Mul(u).Equal(u, tol) {
		t.Error("I*U != U")
	}
	if !u.Mul(Identity(4)).Equal(u, tol) {
		t.Error("U*I != U")
	}
}

func TestStandardGatesUnitary(t *testing.T) {
	gates := map[string]Matrix{
		"I": I2, "X": X, "Y": Y, "Z": Z, "H": H,
		"S": S, "Sdag": Sdag, "T": T, "Tdag": Tdag, "SqrtX": SqrtX,
		"CNOT": CNOT, "CZ": CZ, "SWAP": SWAP, "ISWAP": ISWAP,
		"Toffoli": Toffoli, "Fredkin": Fredkin,
		"RX(0.3)": RX(0.3), "RY(1.1)": RY(1.1), "RZ(-0.7)": RZ(-0.7),
		"Phase(0.5)": Phase(0.5), "CPhase(0.9)": CPhase(0.9),
		"U3": U3(0.4, 1.2, -0.3),
	}
	for name, g := range gates {
		if !g.IsUnitary(tol) {
			t.Errorf("%s is not unitary", name)
		}
	}
}

func TestPauliAlgebra(t *testing.T) {
	// X² = Y² = Z² = I, XY = iZ.
	if !X.Mul(X).Equal(I2, tol) {
		t.Error("X^2 != I")
	}
	if !Y.Mul(Y).Equal(I2, tol) {
		t.Error("Y^2 != I")
	}
	if !Z.Mul(Z).Equal(I2, tol) {
		t.Error("Z^2 != I")
	}
	if !X.Mul(Y).Equal(Z.Scale(1i), tol) {
		t.Error("XY != iZ")
	}
}

func TestHadamardConjugation(t *testing.T) {
	// HXH = Z and HZH = X.
	if !H.Mul(X).Mul(H).Equal(Z, tol) {
		t.Error("HXH != Z")
	}
	if !H.Mul(Z).Mul(H).Equal(X, tol) {
		t.Error("HZH != X")
	}
}

func TestSqrtGates(t *testing.T) {
	if !S.Mul(S).Equal(Z, tol) {
		t.Error("S^2 != Z")
	}
	if !T.Mul(T).Equal(S, tol) {
		t.Error("T^2 != S")
	}
	if !SqrtX.Mul(SqrtX).Equal(X, tol) {
		t.Error("SqrtX^2 != X")
	}
	if !S.Mul(Sdag).Equal(I2, tol) {
		t.Error("S Sdag != I")
	}
	if !T.Mul(Tdag).Equal(I2, tol) {
		t.Error("T Tdag != I")
	}
}

func TestRotationComposition(t *testing.T) {
	// RZ(a)RZ(b) = RZ(a+b).
	a, b := 0.37, 1.91
	if !RZ(a).Mul(RZ(b)).Equal(RZ(a+b), tol) {
		t.Error("RZ(a)RZ(b) != RZ(a+b)")
	}
	// RX(2π) = -I (spinor double cover).
	if !RX(2*math.Pi).Equal(I2.Scale(-1), tol) {
		t.Error("RX(2π) != -I")
	}
	// RY(π) equals -iY.
	if !RY(math.Pi).Equal(Y.Scale(-1i), tol) {
		t.Error("RY(π) != -iY")
	}
}

func TestControlledLift(t *testing.T) {
	if !Controlled(X).Equal(CNOT, tol) {
		t.Errorf("Controlled(X) != CNOT:\n%v", Controlled(X))
	}
	if !Controlled(Z).Equal(CZ, tol) {
		t.Error("Controlled(Z) != CZ")
	}
}

func TestDaggerInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := RandomUnitary(8, rng)
	if !u.Dagger().Dagger().Equal(u, tol) {
		t.Error("(U†)† != U")
	}
}

func TestEqualUpToPhase(t *testing.T) {
	u := RX(0.9)
	v := u.Scale(complex(math.Cos(1.3), math.Sin(1.3)))
	if !v.EqualUpToPhase(u, tol) {
		t.Error("phase-scaled matrix not recognised")
	}
	if v.Equal(u, tol) {
		t.Error("phase-scaled matrix should differ exactly")
	}
	if X.EqualUpToPhase(Z, tol) {
		t.Error("X ~ Z reported equal up to phase")
	}
}

func TestTrace(t *testing.T) {
	if Z.Trace() != 0 {
		t.Errorf("tr Z = %v, want 0", Z.Trace())
	}
	if Identity(8).Trace() != 8 {
		t.Errorf("tr I8 = %v, want 8", Identity(8).Trace())
	}
}

// Property: random unitaries are unitary and composition preserves
// unitarity.
func TestRandomUnitaryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)*2 // 2, 4 or 6
		u := RandomUnitary(n, r)
		v := RandomUnitary(n, r)
		return u.IsUnitary(1e-8) && u.Mul(v).IsUnitary(1e-8)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMatrixFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged rows")
		}
	}()
	MatrixFromRows([]complex128{1, 0}, []complex128{1})
}
