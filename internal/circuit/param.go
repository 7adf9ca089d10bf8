package circuit

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParamTerm is one coeff·symbol term of a linear parameter expression.
type ParamTerm struct {
	Sym   string
	Coeff float64
}

// ParamExpr is a linear expression over named symbols,
//
//	Σ_i Coeff_i · Sym_i + Const,
//
// attached to a gate parameter slot in place of a literal angle. Linear
// expressions are closed under everything the compiler does to rotation
// angles — halving (decompose), negation (inverses), and summing
// (fold-rotations / optimize merging) — so a parameterised circuit can run
// the full pass pipeline once and have every surviving angle remain an
// exact function of the input symbols.
//
// The zero value is the constant 0. Terms are kept normalised: sorted by
// symbol, no duplicates, no zero coefficients — so two expressions compute
// the same function iff they are structurally equal, which is what content
// hashing and eQASM operation grouping rely on.
type ParamExpr struct {
	Terms []ParamTerm
	Const float64
}

// Sym returns the expression consisting of the bare symbol name.
func Sym(name string) *ParamExpr {
	if name == "" {
		panic("circuit: empty parameter symbol name")
	}
	return &ParamExpr{Terms: []ParamTerm{{Sym: name, Coeff: 1}}}
}

// Lit returns the constant expression c. It is mainly useful in APIs that
// accept expressions for every slot.
func Lit(c float64) *ParamExpr { return &ParamExpr{Const: c} }

// IsConst reports whether the expression references no symbols.
func (e *ParamExpr) IsConst() bool { return e == nil || len(e.Terms) == 0 }

// Symbols returns the sorted symbol names the expression references.
func (e *ParamExpr) Symbols() []string {
	if e == nil {
		return nil
	}
	out := make([]string, len(e.Terms))
	for i, t := range e.Terms {
		out[i] = t.Sym
	}
	return out
}

// Clone returns a deep copy (nil stays nil).
func (e *ParamExpr) Clone() *ParamExpr {
	if e == nil {
		return nil
	}
	return &ParamExpr{Terms: append([]ParamTerm(nil), e.Terms...), Const: e.Const}
}

// normalize sorts terms by symbol, merges duplicates and drops zero
// coefficients, in place.
func (e *ParamExpr) normalize() *ParamExpr {
	sort.SliceStable(e.Terms, func(i, j int) bool { return e.Terms[i].Sym < e.Terms[j].Sym })
	out := e.Terms[:0]
	for _, t := range e.Terms {
		if n := len(out); n > 0 && out[n-1].Sym == t.Sym {
			out[n-1].Coeff += t.Coeff
			continue
		}
		out = append(out, t)
	}
	kept := out[:0]
	for _, t := range out {
		if t.Coeff != 0 {
			kept = append(kept, t)
		}
	}
	e.Terms = kept
	return e
}

// Add returns the sum e + o as a new expression.
func (e *ParamExpr) Add(o *ParamExpr) *ParamExpr {
	if e == nil {
		return o.Clone()
	}
	if o == nil {
		return e.Clone()
	}
	sum := &ParamExpr{
		Terms: append(append([]ParamTerm(nil), e.Terms...), o.Terms...),
		Const: e.Const + o.Const,
	}
	return sum.normalize()
}

// Scale returns k·e as a new expression.
func (e *ParamExpr) Scale(k float64) *ParamExpr {
	out := e.Clone()
	if out == nil {
		return nil
	}
	for i := range out.Terms {
		out.Terms[i].Coeff *= k
	}
	out.Const *= k
	return out.normalize()
}

// finite names the first NaN or infinite number in e, if any.
func (e *ParamExpr) finite() error {
	for _, t := range e.Terms {
		if !finite(t.Coeff) {
			return fmt.Errorf("coefficient %v of $%s", t.Coeff, t.Sym)
		}
	}
	if !finite(e.Const) {
		return fmt.Errorf("constant %v", e.Const)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Eval evaluates the expression under the given symbol values. Every
// referenced symbol must be present, and its value and the result finite.
func (e *ParamExpr) Eval(vals map[string]float64) (float64, error) {
	if e == nil {
		return 0, nil
	}
	v := e.Const
	for _, t := range e.Terms {
		x, ok := vals[t.Sym]
		if !ok {
			return 0, fmt.Errorf("circuit: unbound parameter symbol %q", t.Sym)
		}
		if !finite(x) {
			return 0, fmt.Errorf("circuit: non-finite value for parameter symbol %q", t.Sym)
		}
		v += t.Coeff * x
	}
	if !finite(v) {
		return 0, fmt.Errorf("circuit: parameter expression %s evaluates to %v", e, v)
	}
	return v, nil
}

// String renders the expression canonically, e.g. "$theta", "2*$gamma",
// "$a-0.5*$b+1.5". Single-term, zero-const expressions round-trip through
// the cQASM parser.
func (e *ParamExpr) String() string {
	if e == nil {
		return "0"
	}
	var b strings.Builder
	for i, t := range e.Terms {
		c := t.Coeff
		if i == 0 {
			if c < 0 {
				b.WriteString("-")
				c = -c
			}
		} else if c < 0 {
			b.WriteString("-")
			c = -c
		} else {
			b.WriteString("+")
		}
		if c != 1 {
			b.WriteString(strconv.FormatFloat(c, 'g', 17, 64))
			b.WriteString("*")
		}
		b.WriteString("$")
		b.WriteString(t.Sym)
	}
	if e.Const != 0 || len(e.Terms) == 0 {
		if len(e.Terms) > 0 && e.Const > 0 {
			b.WriteString("+")
		}
		b.WriteString(strconv.FormatFloat(e.Const, 'g', 17, 64))
	}
	return b.String()
}

// HashWords returns the expression's canonical content as 64-bit words for
// content hashing: term count, then (symbol FNV-1a hash, coeff bits) per
// term, then the constant's bits. Structurally equal expressions — and only
// those — hash identically.
func (e *ParamExpr) HashWords() []uint64 {
	if e == nil {
		return nil
	}
	out := make([]uint64, 0, 2+2*len(e.Terms))
	out = append(out, uint64(len(e.Terms)))
	for _, t := range e.Terms {
		h := uint64(14695981039346656037)
		for i := 0; i < len(t.Sym); i++ {
			h ^= uint64(t.Sym[i])
			h *= 1099511628211
		}
		out = append(out, h, math.Float64bits(t.Coeff))
	}
	return append(out, math.Float64bits(e.Const))
}

// Symbolic reports whether parameter slot i of the gate is a symbolic
// expression rather than a literal.
func (g Gate) Symbolic(i int) bool {
	return i < len(g.Exprs) && !g.Exprs[i].IsConst()
}

// IsParametric reports whether any parameter slot of the gate is symbolic.
func (g Gate) IsParametric() bool {
	for _, e := range g.Exprs {
		if !e.IsConst() {
			return true
		}
	}
	return false
}

// Bind returns a concrete copy of the gate with every symbolic slot
// evaluated under vals and the expressions dropped.
func (g Gate) Bind(vals map[string]float64) (Gate, error) {
	if !g.IsParametric() {
		return g.Clone(), nil
	}
	out := g.Clone()
	for i, e := range out.Exprs {
		if e.IsConst() {
			continue
		}
		v, err := e.Eval(vals)
		if err != nil {
			return Gate{}, fmt.Errorf("%s param %d: %w", g.Name, i, err)
		}
		out.Params[i] = v
	}
	out.Exprs = nil
	return out, nil
}

// IsParametric reports whether any gate in the circuit has a symbolic
// parameter.
func (c *Circuit) IsParametric() bool {
	for _, g := range c.Gates {
		if g.IsParametric() {
			return true
		}
	}
	return false
}

// Symbols returns the sorted set of parameter symbols the circuit
// references.
func (c *Circuit) Symbols() []string {
	seen := map[string]bool{}
	for _, g := range c.Gates {
		for _, e := range g.Exprs {
			for _, s := range e.Symbols() {
				seen[s] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Bind returns a concrete circuit with every symbolic parameter evaluated
// under vals. Every symbol the circuit references must be present; unused
// extra values are rejected so optimiser typos surface immediately.
func (c *Circuit) Bind(vals map[string]float64) (*Circuit, error) {
	syms := c.Symbols()
	need := map[string]bool{}
	for _, s := range syms {
		need[s] = true
	}
	// Check bindings in sorted order so the reported unknown symbol is
	// deterministic when several are unknown at once.
	given := make([]string, 0, len(vals))
	for s := range vals {
		given = append(given, s)
	}
	sort.Strings(given)
	for _, s := range given {
		if !need[s] {
			return nil, fmt.Errorf("circuit %q: binding for unknown symbol %q", c.Name, s)
		}
	}
	out := New(c.Name, c.NumQubits)
	out.Gates = make([]Gate, 0, len(c.Gates))
	for i, g := range c.Gates {
		b, err := g.Bind(vals)
		if err != nil {
			return nil, fmt.Errorf("circuit %q gate %d: %w", c.Name, i, err)
		}
		out.Gates = append(out.Gates, b)
	}
	return out, nil
}

// AddExpr validates and appends a gate whose parameter slots are given as
// expressions (use Lit for literal slots). It returns the circuit for
// chaining.
func (c *Circuit) AddExpr(name string, qubits []int, exprs ...*ParamExpr) *Circuit {
	g, err := NewGateExpr(name, qubits, exprs...)
	if err != nil {
		panic(err) // programming error in circuit construction
	}
	return c.AddGate(g)
}

// RXExpr appends an X rotation with a symbolic angle.
func (c *Circuit) RXExpr(q int, theta *ParamExpr) *Circuit {
	return c.AddExpr("rx", []int{q}, theta)
}

// RYExpr appends a Y rotation with a symbolic angle.
func (c *Circuit) RYExpr(q int, theta *ParamExpr) *Circuit {
	return c.AddExpr("ry", []int{q}, theta)
}

// RZExpr appends a Z rotation with a symbolic angle.
func (c *Circuit) RZExpr(q int, theta *ParamExpr) *Circuit {
	return c.AddExpr("rz", []int{q}, theta)
}

// CPhaseExpr appends a controlled phase with a symbolic angle.
func (c *Circuit) CPhaseExpr(a, b int, theta *ParamExpr) *Circuit {
	return c.AddExpr("cphase", []int{a, b}, theta)
}

// NewGateExpr builds a gate from parameter expressions. Constant
// expressions become plain literal parameters; symbolic ones are recorded
// in Exprs with a placeholder literal of 0 in Params (the placeholder is
// never executed — symbolic circuits must be bound first).
func NewGateExpr(name string, qubits []int, exprs ...*ParamExpr) (Gate, error) {
	g := Gate{Name: strings.ToLower(name), Qubits: qubits}
	g.Params = make([]float64, len(exprs))
	symbolic := false
	for i, e := range exprs {
		if e.IsConst() {
			if e != nil {
				g.Params[i] = e.Const
			}
			continue
		}
		symbolic = true
	}
	if symbolic {
		g.Exprs = make([]*ParamExpr, len(exprs))
		for i, e := range exprs {
			if !e.IsConst() {
				g.Exprs[i] = e.Clone().normalize()
			}
		}
	}
	if err := g.Validate(); err != nil {
		return Gate{}, err
	}
	return g, nil
}
