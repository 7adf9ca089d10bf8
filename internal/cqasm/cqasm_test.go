package cqasm

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
)

const sample = `
version 1.0
# Bell pair with measurement
qubits 2

.init
    prep_z q[0]
    prep_z q[1]

.entangle
    h q[0]
    cnot q[0], q[1]

.readout
    measure q[0]
    measure q[1]
`

func TestParseSample(t *testing.T) {
	p, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != "1.0" || p.NumQubits != 2 {
		t.Errorf("header parsed wrong: %+v", p)
	}
	if len(p.Subcircuits) != 3 {
		t.Fatalf("subcircuits = %d, want 3", len(p.Subcircuits))
	}
	if p.Subcircuits[1].Name != "entangle" {
		t.Errorf("name = %q", p.Subcircuits[1].Name)
	}
	c := p.Flatten()
	if c.GateCount() != 6 {
		t.Errorf("flattened gates = %d, want 6", c.GateCount())
	}
}

func TestParseIterationsAndBundles(t *testing.T) {
	src := `
version 1.0
qubits 3
.loop(3)
    { x q[0] | y q[1] | z q[2] }
    cnot q[0], q[1]
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Subcircuits[0].Iterations != 3 {
		t.Errorf("iterations = %d", p.Subcircuits[0].Iterations)
	}
	if len(p.Subcircuits[0].Bundles[0].Gates) != 3 {
		t.Errorf("bundle size = %d", len(p.Subcircuits[0].Bundles[0].Gates))
	}
	c := p.Flatten()
	if c.GateCount() != 12 { // (3+1) × 3 iterations
		t.Errorf("flattened = %d gates, want 12", c.GateCount())
	}
}

func TestParsePiExpressions(t *testing.T) {
	cases := map[string]float64{
		"pi":       math.Pi,
		"-pi":      -math.Pi,
		"pi/2":     math.Pi / 2,
		"-pi/4":    -math.Pi / 4,
		"3*pi/2":   3 * math.Pi / 2,
		"2*pi":     2 * math.Pi,
		"0.5":      0.5,
		"-1.25":    -1.25,
		"1e-3":     1e-3,
		"+pi/8":    math.Pi / 8,
		"0.5*pi":   math.Pi / 2,
		"1.5*pi/3": math.Pi / 2,
	}
	for src, want := range cases {
		got, err := parseNumber(src)
		if err != nil {
			t.Errorf("parseNumber(%q): %v", src, err)
			continue
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("parseNumber(%q) = %v, want %v", src, got, want)
		}
	}
	for _, bad := range []string{"pie", "pi/0", "x*pi", "pi/", "q[1]"} {
		if _, err := parseNumber(bad); err == nil {
			t.Errorf("parseNumber(%q) should fail", bad)
		}
	}
}

func TestParseGateAliases(t *testing.T) {
	src := "version 1.0\nqubits 3\ncx q[0], q[1]\ntdg q[0]\nccx q[0], q[1], q[2]\nmeasure_z q[0]\n"
	c, err := ParseToCircuit(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Name != "cnot" || c.Gates[1].Name != "tdag" || c.Gates[2].Name != "toffoli" {
		t.Errorf("aliases wrong: %v", c.Gates)
	}
	if c.Gates[3].Name != circuit.OpMeasure {
		t.Errorf("measure_z alias wrong: %v", c.Gates[3])
	}
}

func TestParseMeasureWithBitTarget(t *testing.T) {
	src := "version 1.0\nqubits 2\nmeasure q[1], b[1]\n"
	c, err := ParseToCircuit(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Qubits[0] != 1 {
		t.Error("bit operand broke qubit parsing")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"version 1.0\nqubits 0\n",
		"version 1.0\nqubits 2\nnosuchgate q[0]\n",
		"version 1.0\nqubits 2\nh q[5]\n",
		"version 1.0\nqubits 2\ncnot q[0] q[1]\n",      // missing comma
		"version 1.0\nqubits 2\n{ x q[0] | y q[0] }\n", // overlapping bundle
		"version 1.0\nqubits 2\n{ x q[0]\n",            // unterminated
		"version 1.0\nqubits 2\n.(3)\n",                // empty name
		"version 1.0\nqubits 2\nh q[0\n",               // unterminated ref
		"h q[0]\n",                                     // no qubits declaration
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted invalid source %q", src)
		}
	}
}

// The parser runs the circuit package's gate check once per gate, with
// the register: programs no layer below can run are refused here, with
// an error that names the problem.
func TestParseRejectsWhatNoLayerRuns(t *testing.T) {
	for src, want := range map[string]string{
		"version 1.0\nqubits 2\nmeasure q[0]\nc-x b[100], q[1]\n": "line 4: circuit: condition bit 100 out of range for 2-qubit register",
		"version 1.0\nqubits 2\nc-x b[2], q[1]\n":                 "line 3: circuit: condition bit 2 out of range",
		"version 1.0\nqubits 2\n{ h q[0] | c-x b[5], q[1] }\n":    "line 3: circuit: condition bit 5 out of range",
		"version 1.0\nqubits 2\nrx q[0], nan\n":                   "line 3: circuit: gate rx has non-finite parameter NaN",
		"version 1.0\nqubits 2\nrx q[0], inf\n":                   "line 3: circuit: gate rx has non-finite parameter +Inf",
		"version 1.0\nqubits 2\nry q[1], -Infinity\n":             "line 3: circuit: gate ry has non-finite parameter -Inf",
		"version 1.0\nqubits 2\nwait inf\n":                       "line 3: circuit: gate wait has non-finite parameter +Inf",
		"version 1.0\nqubits 2\nrx q[0], nan*$t\n":                "line 3: circuit: gate rx has non-finite coefficient NaN of $t",
		"version 1.0\nqubits 2\nrz q[0], -inf*$t\n":               "line 3: circuit: gate rz has non-finite coefficient -Inf of $t",
		"version 1.0\nqubits 2\nh q[5]\n":                         "line 3: circuit: qubit 5 out of range for 2-qubit register",
		"version 1.0\nh q[0]\nqubits 2\n":                         "line 2: gate before the qubits declaration",
		"version 1.0\nqubits 5\nh q[4]\nqubits 2\n":               `line 4: bad or repeated qubits declaration "qubits 2"`,
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q): error %v, want one naming %q", src, err, want)
		}
	}
	// The largest finite angles are legal.
	if _, err := Parse("version 1.0\nqubits 1\nrx q[0], 1.7976931348623157e308\nrz q[0], -1e300*$t\n"); err != nil {
		t.Errorf("finite extremes refused: %v", err)
	}
}

func TestCommentsStripped(t *testing.T) {
	src := "version 1.0 # trailing\nqubits 1 // both styles\nh q[0] # gate comment\n"
	c, err := ParseToCircuit(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.GateCount() != 1 {
		t.Errorf("gates = %d", c.GateCount())
	}
}

func TestPrintRoundTrip(t *testing.T) {
	p, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := Print(p)
	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	c1 := p.Flatten()
	c2 := p2.Flatten()
	if c1.GateCount() != c2.GateCount() {
		t.Errorf("round trip changed gate count %d → %d", c1.GateCount(), c2.GateCount())
	}
	for i := range c1.Gates {
		if c1.Gates[i].String() != c2.Gates[i].String() {
			t.Errorf("gate %d changed: %s → %s", i, c1.Gates[i], c2.Gates[i])
		}
	}
}

// Property: printing any random circuit and re-parsing reproduces the
// exact gate sequence.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.RandomCircuit(1+rng.Intn(5), 1+rng.Intn(4), rng)
		c.MeasureAll()
		text := PrintCircuit(c)
		back, err := ParseToCircuit(text)
		if err != nil {
			return false
		}
		if back.GateCount() != c.GateCount() {
			return false
		}
		for i := range c.Gates {
			a, b := c.Gates[i], back.Gates[i]
			if a.Name != b.Name || len(a.Qubits) != len(b.Qubits) || len(a.Params) != len(b.Params) {
				return false
			}
			for j := range a.Qubits {
				if a.Qubits[j] != b.Qubits[j] {
					return false
				}
			}
			for j := range a.Params {
				if math.Abs(a.Params[j]-b.Params[j]) > 1e-15 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPrintBundleSyntax(t *testing.T) {
	p := &Program{
		Version:   "1.0",
		NumQubits: 2,
		Subcircuits: []Subcircuit{{
			Name:       "par",
			Iterations: 2,
			Bundles: []Bundle{{Gates: []circuit.Gate{
				{Name: "x", Qubits: []int{0}},
				{Name: "y", Qubits: []int{1}},
			}}},
		}},
	}
	text := Print(p)
	if !strings.Contains(text, "{ x q[0] | y q[1] }") {
		t.Errorf("bundle not printed: %s", text)
	}
	if !strings.Contains(text, ".par(2)") {
		t.Errorf("iterations not printed: %s", text)
	}
	p2, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Subcircuits[0].Iterations != 2 {
		t.Error("iterations lost in round trip")
	}
}

func TestFromCircuitSanitizesName(t *testing.T) {
	c := circuit.New("my circuit-2!", 1).H(0)
	p := FromCircuit(c)
	if p.Subcircuits[0].Name != "my_circuit_2_" {
		t.Errorf("sanitized name = %q", p.Subcircuits[0].Name)
	}
	if _, err := Parse(Print(p)); err != nil {
		t.Errorf("sanitized program does not re-parse: %v", err)
	}
}

func TestConditionalGateParsing(t *testing.T) {
	src := "version 1.0\nqubits 3\nmeasure q[0]\nc-x b[0], q[2]\nc-z b[1], q[2]\n"
	c, err := ParseToCircuit(src)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Gates[1].HasCond || c.Gates[1].CondBit != 0 || c.Gates[1].Name != "x" {
		t.Errorf("c-x parsed wrong: %+v", c.Gates[1])
	}
	if !c.Gates[2].HasCond || c.Gates[2].CondBit != 1 {
		t.Errorf("c-z parsed wrong: %+v", c.Gates[2])
	}
	// Round trip preserves the condition.
	back, err := ParseToCircuit(PrintCircuit(c))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Gates[1].HasCond || back.Gates[1].CondBit != 0 {
		t.Errorf("condition lost in round trip: %+v", back.Gates[1])
	}
}

func TestConditionalGateErrors(t *testing.T) {
	bad := []string{
		"version 1.0\nqubits 2\nc-x q[0]\n",             // missing bit
		"version 1.0\nqubits 2\nc-x b[0], b[1], q[0]\n", // two bits
		"version 1.0\nqubits 2\nc-measure b[0], q[0]\n", // conditional non-unitary
		"version 1.0\nqubits 2\nc-x b[, q[0]\n",         // malformed bit
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// randomProgram builds a random but print-safe Program: sanitized
// subcircuit names, iteration counts, multi-gate bundles over disjoint
// qubits, parameterised and classically-controlled gates.
func randomProgram(rng *rand.Rand) *Program {
	n := 2 + rng.Intn(5)
	p := &Program{Version: "1.0", NumQubits: n}
	mk := func(name string, qubits []int, params ...float64) circuit.Gate {
		g, err := circuit.NewGate(name, qubits, params...)
		if err != nil {
			panic(err)
		}
		return g
	}
	randomGate := func(avoid map[int]bool) (circuit.Gate, bool) {
		free := make([]int, 0, n)
		for q := 0; q < n; q++ {
			if !avoid[q] {
				free = append(free, q)
			}
		}
		rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		angle := rng.Float64()*4*math.Pi - 2*math.Pi
		switch k := rng.Intn(10); {
		case k < 3 && len(free) >= 1: // plain single-qubit gate
			names := []string{"h", "x", "y", "z", "s", "sdag", "t", "tdag"}
			return mk(names[rng.Intn(len(names))], free[:1]), true
		case k < 5 && len(free) >= 1: // rotation with an arbitrary float param
			names := []string{"rx", "ry", "rz"}
			return mk(names[rng.Intn(len(names))], free[:1], angle), true
		case k < 7 && len(free) >= 2: // two-qubit gate
			if rng.Intn(2) == 0 {
				return mk("cphase", free[:2], angle), true
			}
			names := []string{"cnot", "cz", "swap"}
			return mk(names[rng.Intn(len(names))], free[:2]), true
		case k < 8 && len(free) >= 3:
			return mk("toffoli", free[:3]), true
		case k < 9 && len(free) >= 1: // classically-controlled gate
			g := mk("x", free[:1])
			g.HasCond = true
			g.CondBit = rng.Intn(n)
			return g, true
		case len(free) >= 1: // non-unitary ops
			if rng.Intn(2) == 0 {
				return circuit.Gate{Name: circuit.OpMeasure, Qubits: free[:1]}, true
			}
			return circuit.Gate{Name: circuit.OpPrepZ, Qubits: free[:1]}, true
		}
		return circuit.Gate{}, false
	}
	for si, subs := 0, 1+rng.Intn(3); si < subs; si++ {
		sub := Subcircuit{Name: "sub" + string(rune('a'+si)), Iterations: 1 + rng.Intn(3)}
		for bi, bundles := 0, 1+rng.Intn(6); bi < bundles; bi++ {
			var b Bundle
			used := map[int]bool{}
			for gi, gates := 0, 1+rng.Intn(2); gi < gates; gi++ {
				g, ok := randomGate(used)
				if !ok {
					break
				}
				for _, q := range g.Qubits {
					used[q] = true
				}
				b.Gates = append(b.Gates, g)
			}
			if len(b.Gates) > 0 {
				sub.Bundles = append(sub.Bundles, b)
			}
		}
		if len(sub.Bundles) > 0 {
			p.Subcircuits = append(p.Subcircuits, sub)
		}
	}
	if len(p.Subcircuits) == 0 {
		p.Subcircuits = []Subcircuit{{Name: "main", Iterations: 1,
			Bundles: []Bundle{{Gates: []circuit.Gate{mk("h", []int{0})}}}}}
	}
	return p
}

// Property: Parse(Print(p)) reproduces the same program — qubit count,
// subcircuit names and iteration counts, bundle structure and every gate
// (names, operands, exact float parameters, conditional bits).
func TestPrintParseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := randomProgram(rng)
		text := Print(orig)
		parsed, err := Parse(text)
		if err != nil {
			t.Logf("round-trip parse failed: %v\n%s", err, text)
			return false
		}
		if !reflect.DeepEqual(parsed, orig) {
			t.Logf("round-trip mismatch:\noriginal: %+v\nparsed:   %+v\ntext:\n%s", orig, parsed, text)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
