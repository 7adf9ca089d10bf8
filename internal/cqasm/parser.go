package cqasm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// Parse reads cQASM source text into a Program. Errors carry 1-based line
// numbers.
func Parse(src string) (*Program, error) {
	p := &Program{}
	var cur *Subcircuit
	ensureSub := func() *Subcircuit {
		if cur == nil {
			p.Subcircuits = append(p.Subcircuits, Subcircuit{Name: "default", Iterations: 1})
			cur = &p.Subcircuits[len(p.Subcircuits)-1]
		}
		return cur
	}

	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		lower := strings.ToLower(line)

		switch {
		case strings.HasPrefix(lower, "version"):
			p.Version = strings.TrimSpace(line[len("version"):])
		case strings.HasPrefix(lower, "qubits"):
			n, err := strconv.Atoi(strings.TrimSpace(line[len("qubits"):]))
			if err != nil || n <= 0 || p.NumQubits != 0 {
				return nil, fmt.Errorf("cqasm: line %d: bad or repeated qubits declaration %q", lineNo+1, line)
			}
			p.NumQubits = n
		case strings.HasPrefix(line, "."):
			name, iters, err := parseSubcircuitHeader(line)
			if err != nil {
				return nil, fmt.Errorf("cqasm: line %d: %v", lineNo+1, err)
			}
			p.Subcircuits = append(p.Subcircuits, Subcircuit{Name: name, Iterations: iters})
			cur = &p.Subcircuits[len(p.Subcircuits)-1]
		default:
			bundle, err := parseBundle(line)
			if err == nil {
				err = p.checkGates(bundle.Gates)
			}
			if err != nil {
				return nil, fmt.Errorf("cqasm: line %d: %v", lineNo+1, err)
			}
			sub := ensureSub()
			sub.Bundles = append(sub.Bundles, bundle)
		}
	}
	if p.NumQubits == 0 {
		return nil, errors.New("cqasm: missing qubits declaration")
	}
	return p, nil
}

// ParseToCircuit parses source and flattens it in one step.
func ParseToCircuit(src string) (*circuit.Circuit, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return p.Flatten(), nil
}

// checkGates checks one line's gates with the circuit package's check,
// inside the declared register, and a bundle's gates for disjointness.
func (p *Program) checkGates(gates []circuit.Gate) error {
	if p.NumQubits == 0 {
		return errors.New("gate before the qubits declaration")
	}
	c := circuit.Circuit{NumQubits: p.NumQubits, Gates: gates}
	if err := c.Validate(); err != nil {
		return errors.Unwrap(err) // the line number locates the gate
	}
	seen := map[int]bool{}
	for _, g := range gates {
		for _, q := range g.Qubits {
			if seen[q] {
				return fmt.Errorf("qubit %d used twice in parallel bundle", q)
			}
			seen[q] = true
		}
	}
	return nil
}

func stripComment(line string) string {
	if i := strings.Index(line, "#"); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	return line
}

func parseSubcircuitHeader(line string) (string, int, error) {
	body := strings.TrimPrefix(line, ".")
	iters := 1
	if i := strings.Index(body, "("); i >= 0 {
		if !strings.HasSuffix(body, ")") {
			return "", 0, fmt.Errorf("unterminated iteration count in %q", line)
		}
		n, err := strconv.Atoi(strings.TrimSpace(body[i+1 : len(body)-1]))
		if err != nil || n < 1 {
			return "", 0, fmt.Errorf("bad iteration count in %q", line)
		}
		iters = n
		body = body[:i]
	}
	name := strings.TrimSpace(body)
	if name == "" {
		return "", 0, fmt.Errorf("empty subcircuit name")
	}
	return name, iters, nil
}

// parseBundle parses one gate line, or several gates in braces.
func parseBundle(line string) (Bundle, error) {
	if !strings.HasPrefix(line, "{") {
		g, err := parseGateLine(line)
		return Bundle{Gates: []circuit.Gate{g}}, err
	}
	if !strings.HasSuffix(line, "}") {
		return Bundle{}, fmt.Errorf("unterminated bundle %q", line)
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(line, "{"), "}")
	var b Bundle
	for _, part := range strings.Split(inner, "|") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		g, err := parseGateLine(part)
		if err != nil {
			return Bundle{}, err
		}
		b.Gates = append(b.Gates, g)
	}
	if len(b.Gates) == 0 {
		return Bundle{}, fmt.Errorf("empty bundle")
	}
	return b, nil
}

// parseGateLine parses "name operand, operand, ..." where operands are
// q[i] qubit references, b[i] classical-bit references, or numeric
// parameters (floats or pi expressions). A "c-" prefix marks a
// classically-controlled gate whose first b[i] operand is the condition.
// Parse checks the gate, once, with the register.
func parseGateLine(line string) (circuit.Gate, error) {
	fields := strings.SplitN(line, " ", 2)
	name := strings.ToLower(strings.TrimSpace(fields[0]))
	if name == "" {
		return circuit.Gate{}, fmt.Errorf("empty gate line")
	}
	conditional := false
	if strings.HasPrefix(name, "c-") {
		conditional = true
		name = name[2:]
	}
	aliases := map[string]string{
		"measure_z": circuit.OpMeasure,
		"cx":        "cnot",
		"prep":      circuit.OpPrepZ,
		"tdg":       "tdag",
		"sdg":       "sdag",
		"ccx":       "toffoli",
		"cr":        "cphase",
	}
	if canon, ok := aliases[name]; ok {
		name = canon
	}

	var qubits []int
	var params []float64
	var exprs []*circuit.ParamExpr
	symbolic := false
	var bits []int
	if len(fields) == 2 {
		for _, op := range strings.Split(fields[1], ",") {
			op = strings.TrimSpace(op)
			if op == "" {
				return circuit.Gate{}, fmt.Errorf("empty operand in %q", line)
			}
			if q, ok, err := parseQubitRef(op); ok {
				if err != nil {
					return circuit.Gate{}, err
				}
				qubits = append(qubits, q)
				continue
			}
			if strings.HasPrefix(strings.ToLower(op), "b[") {
				if !strings.HasSuffix(op, "]") {
					return circuit.Gate{}, fmt.Errorf("unterminated bit reference %q", op)
				}
				bit, err := strconv.Atoi(strings.TrimSpace(op[2 : len(op)-1]))
				if err != nil || bit < 0 {
					return circuit.Gate{}, fmt.Errorf("bad bit index in %q", op)
				}
				bits = append(bits, bit)
				continue
			}
			if e, ok, err := parseSymbolRef(op); ok {
				if err != nil {
					return circuit.Gate{}, fmt.Errorf("bad operand %q: %v", op, err)
				}
				if e.IsConst() {
					e = nil // a zero multiplier leaves a literal 0
				} else {
					symbolic = true
				}
				params = append(params, 0)
				exprs = append(exprs, e)
				continue
			}
			v, err := parseNumber(op)
			if err != nil {
				return circuit.Gate{}, fmt.Errorf("bad operand %q: %v", op, err)
			}
			params = append(params, v)
			exprs = append(exprs, nil)
		}
	}

	g := circuit.Gate{Name: name, Qubits: qubits, Params: params}
	if symbolic {
		if circuit.IsNonUnitary(name) {
			return circuit.Gate{}, fmt.Errorf("symbolic parameter on non-unitary %q in %q", name, line)
		}
		g.Exprs = exprs
	}
	// Bit operands of other gates (a measure's b[i]) are the implicit
	// per-qubit bits.
	if conditional {
		if len(bits) != 1 {
			return circuit.Gate{}, fmt.Errorf("conditional gate needs exactly one b[i] operand in %q", line)
		}
		g.HasCond = true
		g.CondBit = bits[0]
	}
	return g, nil
}

func parseQubitRef(op string) (int, bool, error) {
	low := strings.ToLower(op)
	if !strings.HasPrefix(low, "q[") {
		return 0, false, nil
	}
	if !strings.HasSuffix(op, "]") {
		return 0, true, fmt.Errorf("unterminated qubit reference %q", op)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(op[2 : len(op)-1]))
	if err != nil || idx < 0 {
		return 0, true, fmt.Errorf("bad qubit index in %q", op)
	}
	return idx, true, nil
}

// parseSymbolRef recognises symbolic parameter operands of the forms
// "$name", "-$name", "k*$name" and "k*$name/m" (k, m numeric, name an
// identifier) and returns the corresponding linear expression. ok is
// false when the operand does not reference a symbol at all.
func parseSymbolRef(op string) (*circuit.ParamExpr, bool, error) {
	s := strings.TrimSpace(op)
	if !strings.Contains(s, "$") {
		return nil, false, nil
	}
	coeff := 1.0
	if strings.HasPrefix(s, "-") {
		coeff = -1
		s = strings.TrimSpace(s[1:])
	} else if strings.HasPrefix(s, "+") {
		s = strings.TrimSpace(s[1:])
	}
	if i := strings.Index(s, "*"); i >= 0 {
		k, err := strconv.ParseFloat(strings.TrimSpace(s[:i]), 64)
		if err != nil {
			return nil, true, fmt.Errorf("bad symbol multiplier")
		}
		coeff *= k
		s = strings.TrimSpace(s[i+1:])
	}
	if i := strings.Index(s, "/"); i >= 0 {
		m, err := strconv.ParseFloat(strings.TrimSpace(s[i+1:]), 64)
		if err != nil || m == 0 {
			return nil, true, fmt.Errorf("bad symbol divisor")
		}
		coeff /= m
		s = strings.TrimSpace(s[:i])
	}
	if !strings.HasPrefix(s, "$") {
		return nil, true, fmt.Errorf("malformed symbol reference")
	}
	name := s[1:]
	if name == "" {
		return nil, true, fmt.Errorf("empty symbol name")
	}
	for _, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			return nil, true, fmt.Errorf("bad symbol name %q", name)
		}
	}
	return circuit.Sym(name).Scale(coeff), true, nil
}

// parseNumber accepts float literals and pi expressions of the forms
// "pi", "-pi", "k*pi", "pi/m", "k*pi/m" (k, m numeric).
func parseNumber(s string) (float64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	if !strings.Contains(s, "pi") {
		return 0, fmt.Errorf("not a number")
	}
	sign := 1.0
	if strings.HasPrefix(s, "-") {
		sign = -1
		s = s[1:]
	} else if strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	mult := 1.0
	div := 1.0
	if i := strings.Index(s, "*"); i >= 0 {
		k, err := strconv.ParseFloat(strings.TrimSpace(s[:i]), 64)
		if err != nil {
			return 0, fmt.Errorf("bad pi multiplier")
		}
		mult = k
		s = strings.TrimSpace(s[i+1:])
	}
	if i := strings.Index(s, "/"); i >= 0 {
		m, err := strconv.ParseFloat(strings.TrimSpace(s[i+1:]), 64)
		if err != nil || m == 0 {
			return 0, fmt.Errorf("bad pi divisor")
		}
		div = m
		s = strings.TrimSpace(s[:i])
	}
	if s != "pi" {
		return 0, fmt.Errorf("malformed pi expression")
	}
	return sign * mult * math.Pi / div, nil
}
