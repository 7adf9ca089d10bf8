package compiler

import (
	"math/rand"
	"reflect"
	"testing"

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
