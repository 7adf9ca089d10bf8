package circuit

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/quantum"
)

func TestNewGateValidation(t *testing.T) {
	if _, err := NewGate("h", []int{0}); err != nil {
		t.Errorf("valid h rejected: %v", err)
	}
	if _, err := NewGate("nosuch", []int{0}); err == nil {
		t.Error("unknown gate accepted")
	}
	if _, err := NewGate("cnot", []int{0}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := NewGate("cnot", []int{1, 1}); err == nil {
		t.Error("repeated qubit accepted")
	}
	if _, err := NewGate("rz", []int{0}); err == nil {
		t.Error("missing parameter accepted")
	}
	if _, err := NewGate("h", []int{-1}); err == nil {
		t.Error("negative qubit accepted")
	}
}

func TestRegistryMatrices(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Lookup(name)
		params := make([]float64, spec.NumParams)
		for i := range params {
			params[i] = 0.3 * float64(i+1)
		}
		m := spec.Matrix(params)
		if m.N != 1<<uint(spec.Arity) {
			t.Errorf("%s: matrix dim %d for arity %d", name, m.N, spec.Arity)
		}
		if !m.IsUnitary(1e-9) {
			t.Errorf("%s: matrix not unitary", name)
		}
	}
}

// Property: for every registered gate, composing with its inverse yields
// the identity.
func TestInverseProperty(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Lookup(name)
		qubits := make([]int, spec.Arity)
		for i := range qubits {
			qubits[i] = i
		}
		params := make([]float64, spec.NumParams)
		for i := range params {
			params[i] = 0.7 + 0.4*float64(i)
		}
		g, err := NewGate(name, qubits, params...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inv, err := g.Inverse()
		if err != nil {
			t.Fatalf("%s inverse: %v", name, err)
		}
		gm, _ := g.Matrix()
		im, _ := inv.Matrix()
		if !gm.Mul(im).Equal(quantum.Identity(gm.N), 1e-9) {
			t.Errorf("%s: G·G⁻¹ != I", name)
		}
	}
}

func TestCircuitBuildersAndCounts(t *testing.T) {
	c := New("test", 3)
	c.H(0).CNOT(0, 1).RZ(2, 0.5).CZ(1, 2).Measure(0)
	if got := c.GateCount(); got != 5 {
		t.Errorf("gate count %d, want 5", got)
	}
	if got := c.GateCount("cnot", "cz"); got != 2 {
		t.Errorf("count(cnot,cz) = %d, want 2", got)
	}
}

func TestDepth(t *testing.T) {
	c := New("d", 4)
	c.H(0).H(1).H(2).H(3) // one layer
	if d := c.Depth(); d != 1 {
		t.Errorf("depth %d, want 1", d)
	}
	c.CNOT(0, 1).CNOT(2, 3) // second layer
	if d := c.Depth(); d != 2 {
		t.Errorf("depth %d, want 2", d)
	}
	c.CNOT(1, 2) // third layer
	if d := c.Depth(); d != 3 {
		t.Errorf("depth %d, want 3", d)
	}
}

func TestDepthWithBarrier(t *testing.T) {
	c := New("b", 2)
	c.H(0).Barrier().H(1)
	if d := c.Depth(); d != 2 {
		t.Errorf("depth with barrier %d, want 2", d)
	}
}

func TestCircuitInverse(t *testing.T) {
	c := New("inv", 2)
	c.H(0).T(0).CNOT(0, 1).RZ(1, 0.9)
	inv, err := c.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if inv.Gates[0].Name != "rz" || inv.Gates[0].Params[0] != -0.9 {
		t.Errorf("inverse order/params wrong: %v", inv.Gates[0])
	}
	if inv.Gates[2].Name != "tdag" {
		t.Errorf("t inverse = %s, want tdag", inv.Gates[2].Name)
	}
	c.Measure(0)
	if _, err := c.Inverse(); err == nil {
		t.Error("inverse of measuring circuit should fail")
	}
}

func TestAppendAndClone(t *testing.T) {
	a := New("a", 2).H(0)
	b := New("b", 2).CNOT(0, 1)
	a.Append(b)
	if a.GateCount() != 2 {
		t.Error("append failed")
	}
	c := a.Clone()
	c.X(0)
	if a.GateCount() != 2 {
		t.Error("clone not independent")
	}
}

func TestValidate(t *testing.T) {
	c := New("v", 2).H(0).CNOT(0, 1)
	if err := c.Validate(); err != nil {
		t.Errorf("valid circuit rejected: %v", err)
	}
	c.Gates = append(c.Gates, Gate{Name: "bogus", Qubits: []int{0}})
	if err := c.Validate(); err == nil {
		t.Error("invalid gate accepted")
	}
}

func TestGateString(t *testing.T) {
	g, _ := NewGate("rz", []int{2}, 0.5)
	if got := g.String(); got != "rz q[2], 0.5" {
		t.Errorf("String() = %q", got)
	}
	if s := New("s", 1).H(0).String(); !strings.Contains(s, "h q[0]") {
		t.Errorf("circuit String missing gate: %q", s)
	}
}

func simulate(c *Circuit) *quantum.State {
	s := quantum.NewState(c.NumQubits)
	for _, g := range c.Gates {
		if !g.IsUnitary() {
			continue
		}
		m, err := g.Matrix()
		if err != nil {
			panic(err)
		}
		s.Apply(m, g.Qubits...)
	}
	return s
}

func TestQFTOnBasisState(t *testing.T) {
	// QFT|0...0> = uniform superposition.
	n := 4
	c := QFT(n, true)
	s := simulate(c)
	want := 1 / math.Sqrt(math.Pow(2, float64(n)))
	for i := 0; i < s.Dim(); i++ {
		a := s.Amplitude(i)
		if math.Abs(real(a)-want) > 1e-9 || math.Abs(imag(a)) > 1e-9 {
			t.Fatalf("QFT|0>: amp[%d] = %v, want %v", i, a, want)
		}
	}
}

func TestQFTInverseIsIdentity(t *testing.T) {
	n := 3
	c := QFT(n, true)
	inv, err := c.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	s := quantum.RandomState(n, rng)
	orig := s.Clone()
	for _, g := range append(append([]Gate{}, c.Gates...), inv.Gates...) {
		m, _ := g.Matrix()
		s.Apply(m, g.Qubits...)
	}
	if f := s.Fidelity(orig); math.Abs(f-1) > 1e-8 {
		t.Errorf("QFT·QFT⁻¹ fidelity %v", f)
	}
}

func TestGHZCircuit(t *testing.T) {
	s := simulate(GHZ(6))
	p := s.Probabilities()
	if math.Abs(p[0]-0.5) > 1e-9 || math.Abs(p[63]-0.5) > 1e-9 {
		t.Errorf("GHZ probabilities wrong: p0=%v p63=%v", p[0], p[63])
	}
}

func TestRandomCircuitShape(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := RandomCircuit(6, 5, rng)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.GateCount("cnot"); got != 5*3 {
		t.Errorf("two-qubit gates %d, want 15", got)
	}
}

// Property: random circuits always validate and have depth at least their
// layer count.
func TestRandomCircuitProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		depth := 1 + rng.Intn(6)
		c := RandomCircuit(n, depth, rng)
		return c.Validate() == nil && c.Depth() >= depth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Operand errors name the first offending operand, scanning left to
// right: a negative qubit before a later repeat, a repeat before a later
// negative qubit.
func TestValidateOperandErrors(t *testing.T) {
	for _, row := range []struct {
		qubits []int
		want   string
	}{
		{[]int{0, 1, 2}, ""},
		{[]int{2, 0, 2}, "circuit: gate toffoli repeats qubit 2"},
		{[]int{0, -1, 0}, "circuit: gate toffoli has negative qubit -1"},
		{[]int{1, 1, -3}, "circuit: gate toffoli repeats qubit 1"},
	} {
		err := Gate{Name: "toffoli", Qubits: row.qubits}.Validate()
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != row.want {
			t.Errorf("toffoli %v: error %q, want %q", row.qubits, got, row.want)
		}
	}
}

// A condition bit is the latest measurement of a qubit, so it must lie
// inside the register: Circuit.Validate refuses one outside it, and
// AddGate panics on it.
func TestConditionBitInRegister(t *testing.T) {
	for _, row := range []struct {
		bit  int
		want string
	}{
		{1, ""},
		{2, "circuit: condition bit 2 out of range for 2-qubit register"},
		{100, "circuit: condition bit 100 out of range for 2-qubit register"},
	} {
		g := Gate{Name: "x", Qubits: []int{0}, HasCond: true, CondBit: row.bit}
		got := ""
		if err := (&Circuit{Name: "cond", NumQubits: 2, Gates: []Gate{g}}).Validate(); err != nil {
			got = errors.Unwrap(err).Error()
		}
		if got != row.want {
			t.Errorf("Validate, condition bit %d: error %q, want %q", row.bit, got, row.want)
		}
		if got := addGatePanic(New("cond", 2), g); got != row.want {
			t.Errorf("AddGate, condition bit %d: panic %q, want %q", row.bit, got, row.want)
		}
	}
}

// addGatePanic appends g to c and returns the panic message, "" if none.
func addGatePanic(c *Circuit, g Gate) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	c.AddGate(g)
	return ""
}

// No layer below the builders and the parser can run a NaN or infinite
// angle, so Gate.Validate refuses one in a literal slot, an expression
// coefficient or an expression constant; MaxFloat64 is a legal angle.
func TestValidateRejectsNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rz := func(e *ParamExpr) Gate {
		return Gate{Name: "rz", Qubits: []int{0}, Params: []float64{0}, Exprs: []*ParamExpr{e}}
	}
	for _, row := range []struct {
		g    Gate
		want string
	}{
		{Gate{Name: "rx", Qubits: []int{0}, Params: []float64{math.MaxFloat64}}, ""},
		{Gate{Name: "rx", Qubits: []int{0}, Params: []float64{nan}}, "circuit: gate rx has non-finite parameter NaN"},
		{Gate{Name: "rx", Qubits: []int{0}, Params: []float64{inf}}, "circuit: gate rx has non-finite parameter +Inf"},
		{Gate{Name: "ry", Qubits: []int{0}, Params: []float64{-inf}}, "circuit: gate ry has non-finite parameter -Inf"},
		{Gate{Name: "wait", Params: []float64{inf}}, "circuit: gate wait has non-finite parameter +Inf"},
		{Gate{Name: "wait", Params: []float64{1 << 20}}, ""},
		{Gate{Name: "wait", Params: []float64{-5}}, "circuit: wait count -5 is negative"},
		{Gate{Name: "wait", Params: []float64{0.5}}, "circuit: wait count 0.5 is not a whole number of cycles"},
		{Gate{Name: "wait", Params: []float64{1e18}}, "circuit: wait count 1e+18 exceeds 1048576 cycles"},
		{rz(&ParamExpr{Terms: []ParamTerm{{Sym: "t", Coeff: 2}}, Const: 1}), ""},
		{rz(&ParamExpr{Terms: []ParamTerm{{Sym: "t", Coeff: nan}}}), "circuit: gate rz has non-finite coefficient NaN of $t"},
		{rz(&ParamExpr{Terms: []ParamTerm{{Sym: "t", Coeff: -inf}}}), "circuit: gate rz has non-finite coefficient -Inf of $t"},
		{rz(&ParamExpr{Terms: []ParamTerm{{Sym: "t", Coeff: 1}}, Const: inf}), "circuit: gate rz has non-finite constant +Inf"},
	} {
		got := ""
		if err := row.g.Validate(); err != nil {
			got = err.Error()
		}
		if got != row.want {
			t.Errorf("%s: error %q, want %q", row.g, got, row.want)
		}
	}
	if _, err := NewGate("rz", []int{0}, nan); err == nil {
		t.Error("NewGate accepted a NaN angle")
	}
	if _, err := NewGateExpr("rz", []int{0}, Sym("t").Scale(inf)); err == nil {
		t.Error("NewGateExpr accepted an infinite coefficient")
	}
	if got := addGatePanic(New("rx", 1), Gate{Name: "rx", Qubits: []int{0}, Params: []float64{inf}}); got == "" {
		t.Error("AddGate accepted an infinite angle")
	}
}

func TestValidateAllocatesNothing(t *testing.T) {
	g, err := NewGate("toffoli", []int{4, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("validating a 3-qubit gate takes %.0f allocations, want 0", allocs)
	}
}

// y90 and my90 hand out one shared matrix, bit-equal to the rotation
// each names.
func TestY90MatricesAreSharedRY(t *testing.T) {
	for name, theta := range map[string]float64{"y90": math.Pi / 2, "my90": -math.Pi / 2} {
		spec, _ := Lookup(name)
		m, want := spec.Matrix(nil), quantum.RY(theta)
		for i := range want.Data {
			if math.Float64bits(real(m.Data[i])) != math.Float64bits(real(want.Data[i])) ||
				math.Float64bits(imag(m.Data[i])) != math.Float64bits(imag(want.Data[i])) {
				t.Errorf("%s: entry %d is %v, RY gives %v", name, i, m.Data[i], want.Data[i])
			}
		}
		if again := spec.Matrix(nil); &again.Data[0] != &m.Data[0] {
			t.Errorf("%s: each call builds a new matrix", name)
		}
	}
}
