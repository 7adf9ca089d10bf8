package qec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSurfaceCodeLayout(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		sc, err := NewSurfaceCode(d)
		if err != nil {
			t.Fatal(err)
		}
		if sc.NumDataQubits() != d*d {
			t.Errorf("d=%d: data qubits %d", d, sc.NumDataQubits())
		}
		if len(sc.Stabilizers) != d*d-1 {
			t.Errorf("d=%d: ancillas %d, want %d", d, len(sc.Stabilizers), d*d-1)
		}
		// Half of stabilizers (±1) of each type.
		z, x := 0, 0
		for _, s := range sc.Stabilizers {
			switch s.Type {
			case ZType:
				z++
			case XType:
				x++
			}
			if len(s.Support) != 2 && len(s.Support) != 4 {
				t.Errorf("d=%d: stabilizer support %d", d, len(s.Support))
			}
		}
		if z+x != d*d-1 || abs(z-x) > 1 {
			t.Errorf("d=%d: type split %d/%d", d, z, x)
		}
	}
	if _, err := NewSurfaceCode(4); err == nil {
		t.Error("even distance accepted")
	}
	if _, err := NewSurfaceCode(1); err == nil {
		t.Error("d=1 accepted")
	}
}

func TestStabilizersCommute(t *testing.T) {
	// Every X stabilizer must share an even number of qubits with every
	// Z stabilizer.
	sc, _ := NewSurfaceCode(5)
	for _, a := range sc.Stabilizers {
		if a.Type != XType {
			continue
		}
		inA := map[int]bool{}
		for _, q := range a.Support {
			inA[q] = true
		}
		for _, b := range sc.Stabilizers {
			if b.Type != ZType {
				continue
			}
			shared := 0
			for _, q := range b.Support {
				if inA[q] {
					shared++
				}
			}
			if shared%2 != 0 {
				t.Fatalf("anticommuting stabilizers (%d,%d)/(%d,%d) share %d qubits",
					a.I, a.J, b.I, b.J, shared)
			}
		}
	}
}

func TestSingleErrorAlwaysCorrected(t *testing.T) {
	// Distance 3 corrects every single X error.
	sc, _ := NewSurfaceCode(3)
	for q := 0; q < sc.NumDataQubits(); q++ {
		errs := make([]bool, sc.NumDataQubits())
		errs[q] = true
		defects := sc.SyndromeZ(errs)
		correction := sc.DecodeZ(defects)
		residual := make([]bool, len(errs))
		for i := range errs {
			residual[i] = errs[i] != correction[i]
		}
		if len(sc.SyndromeZ(residual)) != 0 {
			t.Errorf("qubit %d: residual syndrome not clean", q)
		}
		if sc.LogicalXParity(residual) {
			t.Errorf("qubit %d: single error caused logical flip", q)
		}
	}
}

// Property: the decoder always returns to the code space (clean
// syndrome), for any error pattern.
func TestDecoderAlwaysCleansSyndrome(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := []int{3, 5}[int(seed%2+2)%2]
		sc, _ := NewSurfaceCode(d)
		res := sc.RunCycle(0.15, rng)
		return res.ResidualOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLogicalErrorRateImprovesWithDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := 0.02 // below threshold
	sc3, _ := NewSurfaceCode(3)
	sc5, _ := NewSurfaceCode(5)
	l3 := sc3.LogicalErrorRate(p, 4000, rng)
	l5 := sc5.LogicalErrorRate(p, 4000, rng)
	if l3 <= 0 {
		t.Skip("no failures at d=3; increase trials")
	}
	if l5 >= l3 {
		t.Errorf("d=5 (%v) should beat d=3 (%v) below threshold", l5, l3)
	}
	// And both should beat the unencoded qubit.
	if l3 >= p {
		t.Errorf("d=3 logical rate %v worse than physical %v", l3, p)
	}
}

func TestLogicalErrorRateScalesWithP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc, _ := NewSurfaceCode(3)
	low := sc.LogicalErrorRate(0.01, 3000, rng)
	high := sc.LogicalErrorRate(0.10, 3000, rng)
	if high <= low {
		t.Errorf("logical rate should grow with p: %v vs %v", low, high)
	}
}

func TestESMCycleOps(t *testing.T) {
	sc, _ := NewSurfaceCode(3)
	ops := sc.ESMCycleOps()
	// 8 stabilizers: 4 bulk (4 CNOT) + 4 boundary (2 CNOT) = 24 CNOTs,
	// 8 preps, 8 measures, 4 X-type × 2 H = 8. Total 48.
	if ops != 48 {
		t.Errorf("d=3 ESM ops = %d, want 48", ops)
	}
	sc5, _ := NewSurfaceCode(5)
	if sc5.ESMCycleOps() <= ops {
		t.Error("larger code should cost more per round")
	}
}

func TestOverheadFractionClaim(t *testing.T) {
	// One logical gate per ESM round on d=3: QEC consumes > 90 % of ops,
	// the paper's claim.
	sc, _ := NewSurfaceCode(3)
	frac := OverheadFraction(sc.ESMCycleOps(), 1, 1)
	if frac < 0.9 {
		t.Errorf("QEC overhead fraction %v, want > 0.9", frac)
	}
	if OverheadFraction(0, 0, 0) != 0 {
		t.Error("zero case")
	}
}
