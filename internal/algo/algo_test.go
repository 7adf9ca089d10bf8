package algo

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/qx"
)

func TestTeleportBasisStates(t *testing.T) {
	sim := qx.New(1)
	// Teleport |1>: Bob must always measure 1.
	c := Teleport(func(c *circuit.Circuit) { c.X(0) })
	c.Measure(2)
	res, err := sim.Run(c, 500)
	if err != nil {
		t.Fatal(err)
	}
	for idx, count := range res.Counts {
		if idx&(1<<2) == 0 && count > 0 {
			t.Fatalf("teleported |1> measured as 0 (%d times)", count)
		}
	}
}

func TestTeleportSuperposition(t *testing.T) {
	sim := qx.New(2)
	// Teleport cos(θ/2)|0> + sin(θ/2)|1> with P(1) = 0.2.
	theta := 2 * math.Asin(math.Sqrt(0.2))
	c := Teleport(func(c *circuit.Circuit) { c.RY(0, theta) })
	c.Measure(2)
	res, err := sim.Run(c, 8000)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for idx, count := range res.Counts {
		if idx&(1<<2) != 0 {
			ones += count
		}
	}
	p := float64(ones) / 8000
	if math.Abs(p-0.2) > 0.03 {
		t.Errorf("teleported P(1) = %v, want ≈0.2", p)
	}
}

// Property: teleportation preserves arbitrary RY/RZ-prepared payloads.
func TestTeleportProperty(t *testing.T) {
	f := func(seed int64) bool {
		sim := qx.New(seed)
		theta := float64(seed%628) / 100
		c := Teleport(func(c *circuit.Circuit) { c.RY(0, theta).RZ(0, theta/2) })
		c.Measure(2)
		res, err := sim.Run(c, 4000)
		if err != nil {
			return false
		}
		ones := 0
		for idx, count := range res.Counts {
			if idx&(1<<2) != 0 {
				ones += count
			}
		}
		want := math.Pow(math.Sin(theta/2), 2)
		return math.Abs(float64(ones)/4000-want) < 0.04
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestTeleportWithoutCorrectionsFails(t *testing.T) {
	// Dropping the feed-forward corrections must break teleportation —
	// this guards against the conditional gates silently not firing.
	sim := qx.New(3)
	c := circuit.New("broken", 3)
	c.X(0)
	c.H(1).CNOT(1, 2)
	c.CNOT(0, 1).H(0)
	c.Measure(0).Measure(1)
	c.Measure(2)
	res, err := sim.Run(c, 2000)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for idx, count := range res.Counts {
		if idx&(1<<2) == 0 {
			wrong += count
		}
	}
	if wrong == 0 {
		t.Error("uncorrected teleport should sometimes yield 0")
	}
}
