package compiler

import (
	"math"

	"repro/internal/circuit"
)

// slotExpr returns the value of parameter slot i of g as an expression:
// the attached symbolic expression, or a constant wrapping the literal.
func slotExpr(g circuit.Gate, i int) *circuit.ParamExpr {
	if g.Symbolic(i) {
		return g.Exprs[i]
	}
	return circuit.Lit(g.Params[i])
}

// setSlot writes expression e into parameter slot i of g: constant
// expressions collapse back to a plain literal (dropping the Exprs slice
// when no symbolic slot remains), symbolic ones install the expression
// with a 0 placeholder literal.
func setSlot(g *circuit.Gate, i int, e *circuit.ParamExpr) {
	if e.IsConst() {
		g.Params[i] = 0
		if e != nil {
			g.Params[i] = e.Const
		}
		if g.Exprs != nil {
			g.Exprs[i] = nil
			if !g.IsParametric() {
				g.Exprs = nil
			}
		}
		return
	}
	g.Params[i] = 0
	if g.Exprs == nil {
		g.Exprs = make([]*circuit.ParamExpr, len(g.Params))
	}
	g.Exprs[i] = e
}

// addExprs merges two rotation slots, one of them symbolic: the sum keeps
// the symbols, and the constants add as addAngles adds literals. It
// returns nil when a coefficient sum overflows, which no reduction can
// mend, so the rotations stay apart.
func addExprs(a, b *circuit.ParamExpr) *circuit.ParamExpr {
	sum := a.Add(b)
	sum.Const = addAngles(a.Const, b.Const)
	for _, t := range sum.Terms {
		if math.IsInf(t.Coeff, 0) {
			return nil
		}
	}
	return sum
}
