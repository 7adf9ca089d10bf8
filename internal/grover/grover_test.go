package grover

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/quantum"
	"repro/internal/qx"
)

// successTheory is sin²((2k+1)θ) with sin θ = √(m/n): the success
// probability of k Grover iterations over n items, m of them marked.
func successTheory(n, m, k int) float64 {
	s := math.Sin(float64(2*k+1) * math.Asin(math.Sqrt(float64(m)/float64(n))))
	return s * s
}

func TestOptimalIterations(t *testing.T) {
	cases := []struct{ n, m, want int }{
		{4, 1, 1},
		{16, 1, 3},
		{256, 1, 12},
		{1024, 1, 25},
		{16, 4, 1},
		{16, 0, 0},
		{16, 16, 0},
	}
	for _, c := range cases {
		if got := OptimalIterations(c.n, c.m); got != c.want {
			t.Errorf("OptimalIterations(%d,%d) = %d, want %d", c.n, c.m, got, c.want)
		}
	}
}

func TestSearchSingleTarget(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		target := (1 << uint(n)) - 2
		res, err := Search(n, func(idx int) bool { return idx == target }, 0)
		if err != nil {
			t.Fatal(err)
		}
		theory := successTheory(1<<uint(n), 1, res.Iterations)
		if math.Abs(res.SuccessProb-theory) > 1e-9 {
			t.Errorf("n=%d: measured %v vs theory %v", n, res.SuccessProb, theory)
		}
		if res.SuccessProb < 0.9 {
			t.Errorf("n=%d: success %v too low at optimal iterations", n, res.SuccessProb)
		}
	}
}

func TestSearchMultipleTargets(t *testing.T) {
	res, err := Search(6, func(idx int) bool { return idx%16 == 3 }, 0) // 4 of 64
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessProb < 0.9 {
		t.Errorf("multi-target success %v", res.SuccessProb)
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(3, func(int) bool { return false }, 0); err == nil {
		t.Error("empty oracle accepted")
	}
	if _, err := Search(0, func(int) bool { return true }, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestOverrotationDegrades(t *testing.T) {
	// Running 3× the optimal iterations overshoots the target amplitude.
	n := 8
	oracle := func(idx int) bool { return idx == 7 }
	opt, _ := Search(n, oracle, 0)
	over, _ := Search(n, oracle, 3*opt.Iterations)
	if over.SuccessProb >= opt.SuccessProb {
		t.Errorf("overrotation did not degrade: %v vs %v", over.SuccessProb, opt.SuccessProb)
	}
}

// Property: measured success always matches sin²((2k+1)θ) theory.
func TestTheoryMatchProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(seed%4+4)%4 // 3..6
		target := int(seed % int64(1<<uint(n)))
		if target < 0 {
			target = -target
		}
		k := 1 + int(seed%3+3)%3
		res, err := Search(n, func(idx int) bool { return idx == target }, k)
		if err != nil {
			return false
		}
		return math.Abs(res.SuccessProb-successTheory(1<<uint(n), 1, k)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAmplifyFromNonUniformState(t *testing.T) {
	// Store 4 patterns, amplify one of them.
	s := quantum.NewState(4)
	s.SetAmplitude(0, 0)
	for _, p := range []int{1, 5, 9, 13} {
		s.SetAmplitude(p, complex(0.5, 0))
	}
	res := Amplify(s, func(idx int) bool { return idx == 9 }, 1)
	probs := res.State.Probabilities()
	if probs[9] < 0.9 {
		t.Errorf("amplified pattern probability %v", probs[9])
	}
}

func TestBuildCircuitMatchesStateLevel(t *testing.T) {
	sim := qx.New(3)
	for _, n := range []int{2, 3} {
		dim := 1 << uint(n)
		for target := 0; target < dim; target++ {
			c, err := BuildCircuit(n, target, 0)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.RunState(c)
			if err != nil {
				t.Fatal(err)
			}
			probs := st.Probabilities()
			theory := successTheory(dim, 1, OptimalIterations(dim, 1))
			if math.Abs(probs[target]-theory) > 1e-9 {
				t.Errorf("n=%d target=%d: circuit prob %v, theory %v", n, target, probs[target], theory)
			}
		}
	}
}

func TestBuildCircuitErrors(t *testing.T) {
	if _, err := BuildCircuit(4, 0, 1); err == nil {
		t.Error("n=4 accepted")
	}
	if _, err := BuildCircuit(2, 9, 1); err == nil {
		t.Error("out-of-range target accepted")
	}
}

func TestQuadraticAdvantageShape(t *testing.T) {
	// Quantum query count should grow as √N while classical grows as N:
	// the crossover claim of §2.3.
	prevRatio := 0.0
	for _, n := range []int{4, 6, 8, 10} {
		dim := 1 << uint(n)
		quantum := OptimalIterations(dim, 1)
		classical := dim / 2 // average case
		ratio := float64(classical) / float64(quantum)
		if ratio <= prevRatio {
			t.Errorf("advantage should grow with N: ratio %v at n=%d (prev %v)", ratio, n, prevRatio)
		}
		prevRatio = ratio
	}
}
