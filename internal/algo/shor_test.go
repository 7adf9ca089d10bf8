package algo

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/quantum"
)

func TestModMulUnitaryIsPermutation(t *testing.T) {
	for _, a := range []int{2, 7, 11, 13} {
		u := modMulUnitary(a, 4, 15)
		if !u.IsUnitary(1e-12) {
			t.Errorf("U_%d not unitary", a)
		}
		// Each column has exactly one 1.
		for col := 0; col < u.N; col++ {
			ones := 0
			for row := 0; row < u.N; row++ {
				if u.At(row, col) == 1 {
					ones++
				}
			}
			if ones != 1 {
				t.Fatalf("column %d of U_%d has %d ones", col, a, ones)
			}
		}
	}
}

func TestControlledLift(t *testing.T) {
	u := modMulUnitary(7, 4, 15)
	cu := controlled(u)
	if !cu.IsUnitary(1e-12) {
		t.Fatal("controlled lift not unitary")
	}
	// Control clear: identity on targets. |y=3, ctrl=0> → same.
	col := 3 << 1
	if cu.At(col, col) != 1 {
		t.Error("control-clear column not identity")
	}
	// Control set: |y=1, ctrl=1> → |7, ctrl=1>.
	colSet := 1<<1 | 1
	rowWant := 7<<1 | 1
	if cu.At(rowWant, colSet) != 1 {
		t.Error("control-set column does not multiply")
	}
}

func TestModPowAndGCD(t *testing.T) {
	if modPow(7, 4, 15) != 1 {
		t.Error("7^4 mod 15 != 1")
	}
	if modPow(2, 10, 1000) != 24 {
		t.Error("2^10 mod 1000 wrong")
	}
	if gcd(48, 18) != 6 || gcd(-4, 6) != 2 || gcd(0, 5) != 5 {
		t.Error("gcd wrong")
	}
}

func TestFindOrderKnownCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct{ a, n, order int }{
		{7, 15, 4},
		{2, 15, 4},
		{4, 15, 2},
		{11, 15, 2},
		{14, 15, 2},
	}
	for _, c := range cases {
		found := false
		// Order finding is probabilistic (measured s may share a factor
		// with r); a few repetitions make success overwhelming.
		for try := 0; try < 6 && !found; try++ {
			res, err := FindOrder(c.a, c.n, 6, rng)
			if err != nil {
				t.Fatal(err)
			}
			if res.Order == c.order {
				found = true
			}
		}
		if !found {
			t.Errorf("order of %d mod %d: did not find %d", c.a, c.n, c.order)
		}
	}
}

func TestFindOrderRejectsSharedFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := FindOrder(5, 15, 4, rng); err == nil {
		t.Error("a sharing a factor with N accepted")
	}
}

func TestFactor15(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	res, err := Factor(15, 6, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Factors
	if f[0]*f[1] != 15 || f[0] <= 1 || f[1] <= 1 {
		t.Errorf("factors %v", f)
	}
}

func TestFactor21(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	res, err := Factor(21, 6, 25, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Factors
	if f[0]*f[1] != 21 || f[0] <= 1 {
		t.Errorf("factors %v", f)
	}
}

func TestFactorEven(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res, err := Factor(14, 4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Factors[0] != 2 || res.Factors[1] != 7 {
		t.Errorf("even shortcut wrong: %v", res.Factors)
	}
}

func TestOrderFromPhase(t *testing.T) {
	// measured/dim = 48/64 = 3/4 → convergent denominator 4 = order of 7
	// mod 15.
	if got := orderFromPhase(48, 64, 7, 15); got != 4 {
		t.Errorf("orderFromPhase(48/64) = %d, want 4", got)
	}
	// measured 32/64 = 1/2 → denominator 2; a=7 has order 4 = 2·2, the
	// repair step should find it.
	if got := orderFromPhase(32, 64, 7, 15); got != 4 {
		t.Errorf("orderFromPhase(32/64) = %d, want 4 via repair", got)
	}
	if orderFromPhase(0, 64, 7, 15) != 0 {
		t.Error("zero measurement should return 0")
	}
}

func TestInverseQFTStateMatchesCircuit(t *testing.T) {
	// The state-level inverse QFT must undo the circuit-level QFT with
	// its qubit-reversal swaps.
	n := 4
	rng := rand.New(rand.NewSource(13))
	s1 := quantum.RandomState(n, rng)
	s2 := s1.Clone()
	for _, g := range circuit.QFT(n, true).Gates {
		m, _ := g.Matrix()
		s2.Apply(m, g.Qubits...)
	}
	applyInverseQFTState(s2, n)
	if f := s1.Fidelity(s2); f < 1-1e-9 {
		t.Errorf("inverse QFT after QFT fidelity %v", f)
	}
}
