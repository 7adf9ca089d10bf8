package compiler

import (
	"math"
	"testing"

	"repro/internal/circuit"
)

// TestOptimizeMergesSymbolicRotations: merging symbolic with literal
// rotations must keep a symbolic sum rather than collapsing to the
// placeholder literal.
func TestOptimizeMergesSymbolicRotations(t *testing.T) {
	c := circuit.New("m", 1)
	c.RZExpr(0, circuit.Sym("theta"))
	c.RZ(0, 0.5)
	c.RZExpr(0, circuit.Sym("theta").Scale(2))

	out := Optimize(c)
	if got := len(out.Gates); got != 1 {
		t.Fatalf("expected 1 merged gate, got %d:\n%s", got, out)
	}
	g := out.Gates[0]
	if !g.Symbolic(0) {
		t.Fatalf("merged rotation lost its symbols: %+v", g)
	}
	if s := g.Exprs[0].String(); s != "3*$theta+0.5" {
		t.Fatalf("merged expr = %q", s)
	}
}

// TestOptimizeKeepsSymbolicZeroPlaceholder: a symbolic rotation carries a 0
// placeholder literal; dropIdentities must not treat it as a zero-angle
// identity.
func TestOptimizeKeepsSymbolicZeroPlaceholder(t *testing.T) {
	c := circuit.New("k", 1)
	c.RZExpr(0, circuit.Sym("theta"))
	out := Optimize(c)
	if len(out.Gates) != 1 {
		t.Fatalf("symbolic rotation was dropped:\n%s", out)
	}
}

// TestFoldRotationsSymbolicAcrossCNOTControl: folding across a commuting
// CNOT control with a mix of symbolic and literal rz keeps the symbolic
// sum, and the fold is exact under binding.
func TestFoldRotationsSymbolicAcrossCNOTControl(t *testing.T) {
	c := circuit.New("f", 2)
	c.RZExpr(0, circuit.Sym("gamma"))
	c.CNOT(0, 1)
	c.RZ(0, 0.25)
	c.RZExpr(0, circuit.Sym("gamma").Scale(-1))

	out := FoldRotations(c)
	var rzs []circuit.Gate
	for _, g := range out.Gates {
		if g.Name == "rz" {
			rzs = append(rzs, g)
		}
	}
	if len(rzs) != 1 {
		t.Fatalf("expected 1 folded rz, got %d:\n%s", len(rzs), out)
	}
	// gamma − gamma cancels symbolically; 0.25 remains.
	if rzs[0].Symbolic(0) {
		t.Fatalf("cancelling symbols should leave a literal, got %+v", rzs[0])
	}
	if rzs[0].Params[0] != 0.25 {
		t.Fatalf("folded angle = %v", rzs[0].Params[0])
	}
}

// TestDecomposePreservesSymbols: decomposing parametric gates to the NISQ
// set scales expressions instead of baking in placeholder literals.
func TestDecomposePreservesSymbols(t *testing.T) {
	p := nisqPlatform(2)
	c := circuit.New("d", 2)
	c.RXExpr(0, circuit.Sym("beta"))
	c.CPhaseExpr(0, 1, circuit.Sym("gamma"))

	out, err := Decompose(c, p)
	if err != nil {
		t.Fatal(err)
	}
	var exprs []string
	for _, g := range out.Gates {
		if g.Name == "rz" && g.Symbolic(0) {
			exprs = append(exprs, g.Exprs[0].String())
		}
	}
	want := []string{"$beta", "0.5*$gamma", "0.5*$gamma", "-0.5*$gamma"}
	if len(exprs) != len(want) {
		t.Fatalf("symbolic rz exprs = %v, want %v\n%s", exprs, want, out)
	}
	for i := range want {
		if exprs[i] != want[i] {
			t.Fatalf("expr %d = %q, want %q", i, exprs[i], want[i])
		}
	}

	// Decompose-then-bind equals bind-then-decompose gate for gate.
	vals := map[string]float64{"beta": 0.375, "gamma": -1.5}
	boundFirst, err := c.Bind(vals)
	if err != nil {
		t.Fatal(err)
	}
	dbf, err := Decompose(boundFirst, p)
	if err != nil {
		t.Fatal(err)
	}
	dThenB, err := out.Bind(vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbf.Gates) != len(dThenB.Gates) {
		t.Fatalf("gate counts differ: %d vs %d", len(dbf.Gates), len(dThenB.Gates))
	}
	for i := range dbf.Gates {
		a, b := dbf.Gates[i], dThenB.Gates[i]
		if a.Name != b.Name || len(a.Params) != len(b.Params) {
			t.Fatalf("gate %d: %v vs %v", i, a, b)
		}
		for k := range a.Params {
			if math.Abs(a.Params[k]-b.Params[k]) != 0 {
				t.Fatalf("gate %d param %d: %v vs %v", i, k, a.Params[k], b.Params[k])
			}
		}
	}
}
