package compiler

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/circuit"
)

// TestOptimizeCopiesOnlyOnChange checks that a circuit Optimize cannot
// change costs no gate slice: only the output circuit is allocated, and
// it shares the input's gates.
func TestOptimizeCopiesOnlyOnChange(t *testing.T) {
	c := circuit.New("fixed", 3).H(0).CNOT(0, 1).RZ(1, 0.3).X(2).CZ(1, 2).Measure(0)
	out := Optimize(c)
	if len(out.Gates) != len(c.Gates) || &out.Gates[0] != &c.Gates[0] {
		t.Fatal("an unchangeable circuit was copied")
	}
	if cap(out.Gates) != len(out.Gates) {
		t.Error("the shared gate slice is not clipped; an append would write into the input's array")
	}
	if allocs := testing.AllocsPerRun(100, func() { Optimize(c) }); allocs > 1 {
		t.Errorf("optimising an unchangeable circuit takes %.0f allocations, want 1 (the circuit)", allocs)
	}
}

// TestOptimizeLeavesInputUntouched runs Optimize on random circuits full
// of cancellable pairs, mergeable rotations (literal and symbolic) and
// identities, and checks each input is unchanged afterwards.
func TestOptimizeLeavesInputUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	names := []string{"x", "h", "s", "sdag", "cnot", "cz", "rz", "rx", "cphase", "i", "x90", "mx90"}
	for trial := 0; trial < 50; trial++ {
		c := circuit.New("random", 3)
		for i := 0; i < 40; i++ {
			g := randomGate(rng, names[rng.Intn(len(names))], 3, rng.Intn(3) == 0, rng.Intn(8) == 0)
			if len(g.Params) > 0 && rng.Intn(4) == 0 {
				g.Params[0] = 0 // a zero rotation, when literal
			}
			c.Gates = append(c.Gates, g)
		}
		before := c.Clone()
		out := Optimize(c)
		if !reflect.DeepEqual(c, before) {
			t.Fatalf("trial %d: Optimize changed its input", trial)
		}
		if len(out.Gates) >= len(c.Gates) {
			t.Fatalf("trial %d: nothing optimised (%d gates)", trial, len(out.Gates))
		}
	}
}

// TestNormalizeAngleIsConstantTime checks that every finite angle, however
// large, reduces to (−π, π] at once — a subtract-2π loop takes 1.6e9
// rounds at 1e10 and never ends at 1e300 — and that a moderate angle keeps
// its rotation.
func TestNormalizeAngleIsConstantTime(t *testing.T) {
	angles := []float64{0, math.Pi, -math.Pi, 2 * math.Pi, -3 * math.Pi, 7.5, -100.25, 1e6,
		1e10, -1e10, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	done := make(chan []float64, 1)
	go func() {
		out := make([]float64, len(angles))
		for i, a := range angles {
			out[i] = normalizeAngle(a)
		}
		done <- out
	}()
	var got []float64
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("normalizeAngle did not finish in 10 s")
	}
	for i, a := range angles {
		r := got[i]
		if !(r > -math.Pi && r <= math.Pi) {
			t.Errorf("normalizeAngle(%g) = %g, outside (−π, π]", a, r)
		}
		if math.Abs(a) <= 1e6 && (math.Abs(math.Cos(r)-math.Cos(a)) > 1e-9 || math.Abs(math.Sin(r)-math.Sin(a)) > 1e-9) {
			t.Errorf("normalizeAngle(%g) = %g is another rotation", a, r)
		}
	}
}

// TestMergedRotationsStayFinite merges rotations whose plain sum
// overflows: Optimize and FoldRotations reduce the summands modulo 4π
// instead, and leave every sum that does not overflow as it was.
func TestMergedRotationsStayFinite(t *testing.T) {
	a, b := 0.1, 0.2
	if got := addAngles(a, b); got != a+b {
		t.Errorf("addAngles(%v, %v) = %v, want the plain sum %v", a, b, got, a+b)
	}
	if got := addAngles(math.MaxFloat64, -math.MaxFloat64); got != 0 {
		t.Errorf("addAngles(max, -max) = %v, want 0", got)
	}
	for _, name := range []string{"rx", "rz"} {
		for _, a := range []float64{1.7e308, -1.7e308, math.MaxFloat64} {
			c := circuit.New("merge", 1).Add(name, []int{0}, a).Add(name, []int{0}, a)
			for pass, out := range map[string]*circuit.Circuit{"optimize": Optimize(c), "fold": FoldRotations(c)} {
				if name == "rx" && pass == "fold" {
					continue // fold merges z-rotations only
				}
				if len(out.Gates) != 1 {
					t.Errorf("%s: %s(%g) twice left %d gates, want 1", pass, name, a, len(out.Gates))
					continue
				}
				if err := out.Validate(); err != nil {
					t.Errorf("%s: %s(%g) twice: %v", pass, name, a, err)
				}
			}
		}
	}
	// A symbolic merge adds its constants the same way. A coefficient sum
	// that overflows cannot be reduced: those rotations stay apart, so
	// every bind still evaluates.
	big, lit := circuit.Sym("t").Scale(1e308), 1.7e308
	for _, row := range []struct {
		pass  string
		c     *circuit.Circuit
		gates int
	}{
		{"optimize", circuit.New("coeff", 1).RXExpr(0, big).RXExpr(0, big), 2},
		{"fold", circuit.New("coeff", 1).RZExpr(0, big).RZExpr(0, big), 2},
		{"optimize", circuit.New("const", 1).RX(0, lit).RXExpr(0, circuit.Sym("t")).RX(0, lit), 1},
		{"fold", circuit.New("const", 1).RZ(0, lit).RZExpr(0, circuit.Sym("t")).RZ(0, lit), 1},
	} {
		out := FoldRotations(row.c)
		if row.pass == "optimize" {
			out = Optimize(row.c)
		}
		if len(out.Gates) != row.gates {
			t.Errorf("%s %s: %d gates, want %d", row.pass, row.c.Name, len(out.Gates), row.gates)
		}
		for _, v := range []float64{0, 1} {
			if _, err := out.Bind(map[string]float64{"t": v}); err != nil {
				t.Errorf("%s %s: bind t=%g: %v", row.pass, row.c.Name, v, err)
			}
		}
	}
}
