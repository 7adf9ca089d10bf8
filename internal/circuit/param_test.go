package circuit

import (
	"math"
	"reflect"
	"testing"
)

func TestParamExprAlgebra(t *testing.T) {
	e := Sym("gamma").Scale(2).Add(Sym("beta").Scale(-1)).Add(Lit(0.5))
	got, err := e.Eval(map[string]float64{"gamma": 0.3, "beta": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*0.3 - 0.1 + 0.5; got != want {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
	if s := e.String(); s != "-$beta+2*$gamma+0.5" {
		t.Fatalf("String = %q", s)
	}
	if syms := e.Symbols(); !reflect.DeepEqual(syms, []string{"beta", "gamma"}) {
		t.Fatalf("Symbols = %v", syms)
	}
	// Cancelling terms normalise away.
	z := Sym("x").Add(Sym("x").Scale(-1))
	if !z.IsConst() {
		t.Fatalf("x + (-x) should be constant, got %v", z)
	}
}

func TestParamExprEvalMissingSymbol(t *testing.T) {
	if _, err := Sym("theta").Eval(nil); err == nil {
		t.Fatal("expected error for unbound symbol")
	}
	if _, err := Sym("theta").Eval(map[string]float64{"theta": math.NaN()}); err == nil {
		t.Fatal("expected error for NaN binding")
	}
	// Finite inputs can still overflow: the result must be finite too.
	for _, row := range []struct {
		e    *ParamExpr
		vals map[string]float64
		want string
	}{
		{Sym("t").Scale(10), map[string]float64{"t": 1e307}, ""},
		{Sym("t").Scale(10), map[string]float64{"t": 1e308}, "circuit: parameter expression 10*$t evaluates to +Inf"},
		{Sym("a").Add(Sym("b")), map[string]float64{"a": -math.MaxFloat64, "b": -math.MaxFloat64}, "circuit: parameter expression $a+$b evaluates to -Inf"},
	} {
		got := ""
		if _, err := row.e.Eval(row.vals); err != nil {
			got = err.Error()
		}
		if got != row.want {
			t.Errorf("%s at %v: error %q, want %q", row.e, row.vals, got, row.want)
		}
	}
}

func TestParamExprHashWords(t *testing.T) {
	a := Sym("gamma").Scale(2).Add(Lit(1))
	b := Sym("gamma").Add(Sym("gamma")).Add(Lit(1)) // same normal form
	c := Sym("gamma").Scale(2).Add(Lit(2))
	if !reflect.DeepEqual(a.HashWords(), b.HashWords()) {
		t.Fatal("structurally equal exprs must hash equal")
	}
	if reflect.DeepEqual(a.HashWords(), c.HashWords()) {
		t.Fatal("different consts must hash differently")
	}
}

func TestGateBindAndValidate(t *testing.T) {
	g, err := NewGateExpr("rz", []int{0}, Sym("theta"))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsParametric() || !g.Symbolic(0) {
		t.Fatal("gate should be parametric")
	}
	if _, err := g.Matrix(); err == nil {
		t.Fatal("unbound symbolic gate must not produce a matrix")
	}
	if _, err := g.Inverse(); err == nil {
		t.Fatal("unbound symbolic gate must not invert")
	}
	b, err := g.Bind(map[string]float64{"theta": 1.25})
	if err != nil {
		t.Fatal(err)
	}
	if b.IsParametric() || b.Params[0] != 1.25 {
		t.Fatalf("bound gate = %+v", b)
	}
	// Constant expressions collapse to plain literals.
	lit, err := NewGateExpr("rz", []int{0}, Lit(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if lit.IsParametric() || lit.Params[0] != 0.5 {
		t.Fatalf("literal gate = %+v", lit)
	}
}

func TestCircuitBind(t *testing.T) {
	c := New("ansatz", 2)
	c.H(0).H(1)
	c.RZExpr(0, Sym("gamma").Scale(2))
	c.CNOT(0, 1)
	c.RXExpr(1, Sym("beta"))
	c.RZ(0, 0.25)

	if !c.IsParametric() {
		t.Fatal("circuit should be parametric")
	}
	if syms := c.Symbols(); !reflect.DeepEqual(syms, []string{"beta", "gamma"}) {
		t.Fatalf("Symbols = %v", syms)
	}
	if _, err := c.Bind(map[string]float64{"gamma": 1}); err == nil {
		t.Fatal("missing symbol must fail")
	}
	if _, err := c.Bind(map[string]float64{"gamma": 1, "beta": 2, "typo": 3}); err == nil {
		t.Fatal("unknown symbol must fail")
	}
	b, err := c.Bind(map[string]float64{"gamma": 0.5, "beta": 0.125})
	if err != nil {
		t.Fatal(err)
	}
	if b.IsParametric() {
		t.Fatal("bound circuit must be concrete")
	}
	if got := b.Gates[2].Params[0]; got != 1.0 {
		t.Fatalf("bound gamma slot = %v", got)
	}
	if got := b.Gates[4].Params[0]; got != 0.125 {
		t.Fatalf("bound beta slot = %v", got)
	}
	// Original untouched.
	if !c.IsParametric() {
		t.Fatal("Bind must not mutate the source circuit")
	}
	// Clone preserves expressions independently.
	cl := c.Clone()
	cl.Gates[2].Exprs[0] = Sym("other")
	if c.Gates[2].Exprs[0].String() != "2*$gamma" {
		t.Fatal("Clone must deep-copy exprs")
	}
}
