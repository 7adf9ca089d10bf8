// Package circuit defines the gate-level intermediate representation shared
// by every layer of the stack: the OpenQL front end emits it, the compiler
// transforms it, cQASM serialises it, and the QX simulator executes it.
//
// The package owns what a valid gate and circuit are (Gate.Validate,
// Circuit.Validate), and a program is checked once, where it enters: the
// builders (NewGate, NewGateExpr, AddGate and the methods built on them),
// the cQASM parser, and binding (ParamExpr.Eval). The layers below —
// compiler passes, the micro-architecture and the qx engines — take a
// valid circuit and do not check it again.
package circuit

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/quantum"
)

// Gate is one instruction in a quantum circuit. Unitary gates reference the
// gate registry by Name; non-unitary operations (measure, prep, barriers)
// use the reserved names below.
type Gate struct {
	Name   string    // registry name, lower case (e.g. "h", "cnot", "rz")
	Qubits []int     // operand qubits; for controlled gates controls first
	Params []float64 // rotation angles etc.
	// Exprs, when non-nil, runs parallel to Params: a non-nil entry marks
	// that parameter slot as symbolic — its value is the expression over
	// named symbols, and the Params entry is a placeholder (0) that must
	// be bound (Gate.Bind / Circuit.Bind / openql.Compiled.BindArtefact)
	// before the gate can be executed. Nil entries are literal slots.
	Exprs []*ParamExpr
	// HasCond marks a classically-controlled gate (cQASM "c-" prefix):
	// the gate applies only when the classical bit CondBit — the latest
	// measurement of qubit CondBit — is 1. This is the feed-forward
	// construct the paper's programming layer wraps around quantum logic.
	HasCond bool
	CondBit int
}

// Reserved non-unitary operation names.
const (
	OpMeasure    = "measure"     // projective Z measurement of Qubits[0]
	OpMeasureAll = "measure_all" // measure every qubit
	OpPrepZ      = "prep_z"      // reset Qubits[0] to |0>
	OpBarrier    = "barrier"     // scheduling barrier, no quantum effect
	OpWait       = "wait"        // explicit idle; Params[0] = cycles
	OpDisplay    = "display"     // debug: dump state (simulator only)
)

// NewGate builds a gate after validating it (Gate.Validate).
func NewGate(name string, qubits []int, params ...float64) (Gate, error) {
	g := Gate{Name: strings.ToLower(name), Qubits: qubits, Params: params}
	if err := g.Validate(); err != nil {
		return Gate{}, err
	}
	return g, nil
}

// Validate checks the gate against the registry: known name, correct qubit
// arity and parameter count, distinct qubits, finite parameters and
// expression coefficients. Register bounds are the circuit's to check.
func (g Gate) Validate() error {
	for i, p := range g.Params {
		if !finite(p) {
			return fmt.Errorf("circuit: gate %s has non-finite parameter %v", g.Name, p)
		}
		if g.Symbolic(i) {
			if err := g.Exprs[i].finite(); err != nil {
				return fmt.Errorf("circuit: gate %s has non-finite %v", g.Name, err)
			}
		}
	}
	if g.HasCond {
		if IsNonUnitary(g.Name) {
			return fmt.Errorf("circuit: %s cannot be classically controlled", g.Name)
		}
		if g.CondBit < 0 {
			return fmt.Errorf("circuit: negative condition bit %d", g.CondBit)
		}
	}
	if IsNonUnitary(g.Name) {
		switch g.Name {
		case OpMeasure, OpPrepZ:
			if len(g.Qubits) != 1 {
				return fmt.Errorf("circuit: %s takes 1 qubit, got %d", g.Name, len(g.Qubits))
			}
		}
		return nil
	}
	spec, ok := Lookup(g.Name)
	if !ok {
		return fmt.Errorf("circuit: unknown gate %q", g.Name)
	}
	if len(g.Qubits) != spec.Arity {
		return fmt.Errorf("circuit: gate %s takes %d qubits, got %d", g.Name, spec.Arity, len(g.Qubits))
	}
	if len(g.Params) != spec.NumParams {
		return fmt.Errorf("circuit: gate %s takes %d params, got %d", g.Name, spec.NumParams, len(g.Params))
	}
	if g.Exprs != nil && len(g.Exprs) != len(g.Params) {
		return fmt.Errorf("circuit: gate %s has %d params but %d param exprs", g.Name, len(g.Params), len(g.Exprs))
	}
	for i, q := range g.Qubits {
		if q < 0 {
			return fmt.Errorf("circuit: gate %s has negative qubit %d", g.Name, q)
		}
		if slices.Contains(g.Qubits[:i], q) {
			return fmt.Errorf("circuit: gate %s repeats qubit %d", g.Name, q)
		}
	}
	return nil
}

// IsUnitary reports whether the gate is a unitary operation (as opposed to
// measurement, preparation, or a scheduling directive).
func (g Gate) IsUnitary() bool { return !IsNonUnitary(g.Name) }

// IsTwoQubit reports whether the gate acts on exactly two qubits.
func (g Gate) IsTwoQubit() bool { return g.IsUnitary() && len(g.Qubits) == 2 }

// Matrix returns the unitary matrix of the gate, or an error for
// non-unitary operations.
func (g Gate) Matrix() (quantum.Matrix, error) {
	if !g.IsUnitary() {
		return quantum.Matrix{}, fmt.Errorf("circuit: %s has no matrix", g.Name)
	}
	if g.IsParametric() {
		return quantum.Matrix{}, fmt.Errorf("circuit: %s has unbound symbolic parameters %v", g.Name, g.SymbolNames())
	}
	spec, ok := Lookup(g.Name)
	if !ok {
		return quantum.Matrix{}, fmt.Errorf("circuit: unknown gate %q", g.Name)
	}
	return spec.Matrix(g.Params), nil
}

// Inverse returns a gate implementing the inverse unitary. Non-unitary
// operations have no inverse.
func (g Gate) Inverse() (Gate, error) {
	if !g.IsUnitary() {
		return Gate{}, fmt.Errorf("circuit: %s has no inverse", g.Name)
	}
	if g.IsParametric() {
		return Gate{}, fmt.Errorf("circuit: %s has unbound symbolic parameters; bind before inverting", g.Name)
	}
	spec, ok := Lookup(g.Name)
	if !ok {
		return Gate{}, fmt.Errorf("circuit: unknown gate %q", g.Name)
	}
	inv := spec.InverseOf(g)
	return inv, nil
}

// Clone returns a deep copy of the gate.
func (g Gate) Clone() Gate {
	c := Gate{Name: g.Name, HasCond: g.HasCond, CondBit: g.CondBit}
	c.Qubits = append([]int(nil), g.Qubits...)
	c.Params = append([]float64(nil), g.Params...)
	if g.Exprs != nil {
		c.Exprs = make([]*ParamExpr, len(g.Exprs))
		for i, e := range g.Exprs {
			c.Exprs[i] = e.Clone()
		}
	}
	return c
}

// SymbolNames returns the sorted symbols referenced by the gate's
// parameter expressions.
func (g Gate) SymbolNames() []string {
	seen := map[string]bool{}
	for _, e := range g.Exprs {
		for _, s := range e.Symbols() {
			seen[s] = true
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// paramString renders parameter slot i: the expression for symbolic slots,
// the literal otherwise.
func (g Gate) paramString(i int) string {
	if g.Symbolic(i) {
		return g.Exprs[i].String()
	}
	return fmt.Sprintf("%g", g.Params[i])
}

// String renders the gate in cQASM-like syntax, e.g. "rz q[2], 0.5" or
// "c-x b[0], q[1]" for conditional gates.
func (g Gate) String() string {
	var b strings.Builder
	if g.HasCond {
		fmt.Fprintf(&b, "c-%s b[%d]", g.Name, g.CondBit)
		for _, q := range g.Qubits {
			fmt.Fprintf(&b, ", q[%d]", q)
		}
		for i := range g.Params {
			fmt.Fprintf(&b, ", %s", g.paramString(i))
		}
		return b.String()
	}
	b.WriteString(g.Name)
	for i, q := range g.Qubits {
		if i == 0 {
			b.WriteString(" ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "q[%d]", q)
	}
	for i := range g.Params {
		if i == 0 && len(g.Qubits) == 0 {
			b.WriteString(" ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(g.paramString(i))
	}
	return b.String()
}

// IsNonUnitary reports whether name denotes a reserved non-unitary
// operation.
func IsNonUnitary(name string) bool {
	switch name {
	case OpMeasure, OpMeasureAll, OpPrepZ, OpBarrier, OpWait, OpDisplay:
		return true
	}
	return false
}
