package rb

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/quantum"
	"repro/internal/qx"
)

func TestGroupHas24Elements(t *testing.T) {
	g := Group()
	if len(g) != 24 {
		t.Fatalf("group size %d, want 24", len(g))
	}
	// All elements distinct up to phase and unitary.
	for i, a := range g {
		if !a.Matrix.IsUnitary(1e-9) {
			t.Errorf("element %d not unitary", i)
		}
		for j := i + 1; j < len(g); j++ {
			if a.Matrix.EqualUpToPhase(g[j].Matrix, 1e-8) {
				t.Errorf("elements %d and %d coincide", i, j)
			}
		}
	}
}

func TestGroupClosedUnderInverse(t *testing.T) {
	g := Group()
	for i, c := range g {
		if _, err := findInverse(g, c.Matrix); err != nil {
			t.Errorf("element %d has no inverse in group", i)
		}
	}
}

func TestSequenceComposesToIdentity(t *testing.T) {
	g := Group()
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{0, 1, 5, 20} {
		c, err := Sequence(g, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Without noise the survival probability must be exactly 1.
		net := quantum.Identity(2)
		for _, gate := range c.Gates {
			if !gate.IsUnitary() {
				continue
			}
			mat, _ := gate.Matrix()
			net = mat.Mul(net)
		}
		if !net.EqualUpToPhase(quantum.Identity(2), 1e-8) {
			t.Errorf("m=%d: sequence does not invert to identity", m)
		}
	}
}

func TestPerfectQubitsNoDecay(t *testing.T) {
	sim := qx.New(1)
	points, err := Run(sim, []int{1, 10, 50}, 3, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Survival != 1 {
			t.Errorf("perfect qubits decayed: m=%d survival=%v", p.M, p.Survival)
		}
	}
}

func TestNoisyDecayAndFit(t *testing.T) {
	noise := qx.Depolarizing(0.01)
	sim := qx.NewNoisy(5, noise)
	lengths := []int{1, 5, 10, 20, 40}
	points, err := Run(sim, lengths, 8, 100, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Survival should be monotone-ish decreasing overall.
	if points[0].Survival <= points[len(points)-1].Survival {
		t.Errorf("no decay observed: %v", points)
	}
	f, r := Fit(points)
	if f <= 0.9 || f >= 1 {
		t.Errorf("fitted f = %v out of expected band", f)
	}
	// Error per Clifford should be within a factor ~4 of the physical
	// depolarising probability (a Clifford averages ~1.9 H/S gates).
	if r < 0.002 || r > 0.08 {
		t.Errorf("error per Clifford %v implausible for p=0.01", r)
	}
}

func TestFitRecoversKnownDecay(t *testing.T) {
	// Synthetic perfect decay curve: A=0.5, f=0.97, B=0.5.
	var points []Point
	for _, m := range []int{1, 2, 4, 8, 16, 32, 64} {
		points = append(points, Point{M: m, Survival: 0.5*math.Pow(0.97, float64(m)) + 0.5})
	}
	f, _ := Fit(points)
	if math.Abs(f-0.97) > 0.005 {
		t.Errorf("fitted f = %v, want 0.97", f)
	}
}
