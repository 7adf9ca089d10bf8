package openql_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/openql"
	"repro/internal/qx"
	"repro/internal/target"
)

// buildAnsatz builds a QAOA-flavoured program with mixed symbolic/literal
// rotation chains. When lit is nil the angles are the symbolic expressions
// (2γ_l on the cost layer, β_l on the mixer); otherwise they are the
// literal values from lit, so the same construction yields the
// bind-then-compile reference program.
func buildAnsatz(nq, layers int, lit map[string]float64) *openql.Program {
	angle := func(k *openql.Kernel, name string, q int, sym string, coeff float64) {
		switch {
		case lit != nil:
			k.Gate(name, []int{q}, coeff*lit[sym])
		case name == "rz":
			k.RZExpr(q, circuit.Sym(sym).Scale(coeff))
		default:
			k.RXExpr(q, circuit.Sym(sym).Scale(coeff))
		}
	}
	p := openql.NewProgram("ansatz", nq)
	prep := openql.NewKernel("prep", nq)
	for q := 0; q < nq; q++ {
		prep.H(q)
	}
	p.AddKernel(prep)
	for l := 0; l < layers; l++ {
		k := openql.NewKernel(fmt.Sprintf("layer%d", l), nq)
		gamma := fmt.Sprintf("gamma%d", l)
		beta := fmt.Sprintf("beta%d", l)
		for q := 0; q < nq; q++ {
			// Mixed chain: symbolic rz, a literal rz that fold-rotations
			// must absorb into the symbolic sum, then a CNOT-separated
			// symbolic rz that commutes back onto the control.
			angle(k, "rz", q, gamma, 2)
			k.RZ(q, 0.375)
			k.CNOT(q, (q+1)%nq)
			angle(k, "rz", (q+1)%nq, gamma, 1)
		}
		for q := 0; q < nq; q++ {
			angle(k, "rx", q, beta, 1)
		}
		p.AddKernel(k)
	}
	meas := openql.NewKernel("meas", nq)
	meas.MeasureAll()
	p.AddKernel(meas)
	return p
}

// TestBindArtefactMatchesRecompile: Compile().BindArtefact(θ) must equal
// Bind(θ)-then-Compile() gate for gate — across pass specs, devices,
// engines and randomized angle sets — and produce identical counts.
func TestBindArtefactMatchesRecompile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := []string{
		"", // default optimize pipeline
		"decompose,optimize,fold-rotations,map,lower-swaps,optimize-lowered,schedule,assemble",
		"decompose,fold-rotations,map,lower-swaps,schedule,assemble",
	}
	devices := []*target.Device{target.Perfect(5), target.Superconducting()}
	engines := []qx.Engine{qx.Optimized(), qx.Reference()}

	for _, dev := range devices {
		for _, spec := range specs {
			trials := 2
			if dev.Calibration != nil {
				// The realistic device simulates 17 noisy qubits per shot;
				// one angle set per spec keeps the matrix affordable.
				trials = 1
			}
			for trial := 0; trial < trials; trial++ {
				layers := 1 + trial%2
				vals := map[string]float64{}
				for l := 0; l < layers; l++ {
					vals[fmt.Sprintf("gamma%d", l)] = rng.Float64()*4 - 2
					vals[fmt.Sprintf("beta%d", l)] = rng.Float64()*4 - 2
				}
				name := fmt.Sprintf("%s/spec%q/trial%d", dev.Name, spec, trial)

				sym := buildAnsatz(5, layers, nil)
				ref := buildAnsatz(5, layers, vals)

				stack, err := core.NewStackForDevice(dev, 11)
				if err != nil {
					t.Fatal(err)
				}
				stack.Passes = spec
				cs, err := stack.Compile(sym)
				if err != nil {
					t.Fatalf("%s: symbolic compile: %v", name, err)
				}
				if !cs.IsParametric() {
					t.Fatalf("%s: symbolic compile lost its symbols", name)
				}
				bound, err := cs.BindArtefact(vals)
				if err != nil {
					t.Fatalf("%s: bind: %v", name, err)
				}
				if bound.IsParametric() || bound.Circuit.IsParametric() {
					t.Fatalf("%s: bound artefact still parametric", name)
				}
				cr, err := stack.Compile(ref)
				if err != nil {
					t.Fatalf("%s: reference compile: %v", name, err)
				}

				// Gate-for-gate artefact equality.
				if len(bound.Circuit.Gates) != len(cr.Circuit.Gates) {
					t.Fatalf("%s: gate counts differ: bound %d vs recompiled %d",
						name, len(bound.Circuit.Gates), len(cr.Circuit.Gates))
				}
				for i := range bound.Circuit.Gates {
					a, b := bound.Circuit.Gates[i], cr.Circuit.Gates[i]
					if a.Name != b.Name || !reflect.DeepEqual(a.Qubits, b.Qubits) || len(a.Params) != len(b.Params) {
						t.Fatalf("%s: gate %d differs: %v vs %v", name, i, a, b)
					}
					for k := range a.Params {
						if math.Abs(a.Params[k]-b.Params[k]) > 1e-9 {
							t.Fatalf("%s: gate %d param %d: %v vs %v", name, i, k, a.Params[k], b.Params[k])
						}
					}
				}
				if (bound.EQASM == nil) != (cr.EQASM == nil) {
					t.Fatalf("%s: eQASM presence differs", name)
				}
				if bound.EQASM != nil && bound.EQASM.String() != cr.EQASM.String() {
					t.Fatalf("%s: eQASM differs:\nbound:\n%s\nrecompiled:\n%s",
						name, bound.EQASM.String(), cr.EQASM.String())
				}

				// Counts equality under the same seed, per engine. The
				// realistic runs are per-shot 17-qubit trajectory sims, so
				// they get few shots and one engine.
				shots := 256
				engs := engines
				if dev.Calibration != nil {
					shots = 8
					engs = engines[:1]
				}
				for _, eng := range engs {
					stack.Engine = eng
					ra, err := stack.RunCompiled(bound, 5, shots, 1234)
					if err != nil {
						t.Fatalf("%s/%s: run bound: %v", name, eng.Name(), err)
					}
					rb, err := stack.RunCompiled(cr, 5, shots, 1234)
					if err != nil {
						t.Fatalf("%s/%s: run recompiled: %v", name, eng.Name(), err)
					}
					if !reflect.DeepEqual(ra.Result.Counts, rb.Result.Counts) {
						t.Fatalf("%s/%s: counts differ:\nbound:      %v\nrecompiled: %v",
							name, eng.Name(), ra.Result.Counts, rb.Result.Counts)
					}
				}
				stack.Engine = nil
			}
		}
	}
}

// TestBindArtefactValidation: strict symbol checking and immutability of
// the shared symbolic artefact.
func TestBindArtefactValidation(t *testing.T) {
	sym := buildAnsatz(3, 1, nil)
	stack, err := core.NewStackForDevice(target.Perfect(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := stack.Compile(sym)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.Symbols(); !reflect.DeepEqual(got, []string{"beta0", "gamma0"}) {
		t.Fatalf("Symbols = %v", got)
	}
	if _, err := cs.BindArtefact(map[string]float64{"gamma0": 1}); err == nil {
		t.Fatal("missing symbol must fail")
	}
	if _, err := cs.BindArtefact(map[string]float64{"gamma0": 1, "beta0": 2, "nope": 3}); err == nil {
		t.Fatal("unknown symbol must fail")
	}
	// Unbound execution is rejected.
	if _, err := stack.RunCompiled(cs, 3, 8, 1); err == nil {
		t.Fatal("executing an unbound artefact must fail")
	}
	before := cs.Circuit.String()
	b1, err := cs.BindArtefact(map[string]float64{"gamma0": 0.7, "beta0": -0.3})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := cs.BindArtefact(map[string]float64{"gamma0": -1.1, "beta0": 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Circuit.String() != before {
		t.Fatal("BindArtefact mutated the shared symbolic artefact")
	}
	if b1.Circuit.String() == b2.Circuit.String() {
		t.Fatal("distinct bindings produced identical circuits")
	}
	// Non-parametric artefacts reject bindings but pass through empty ones.
	lit := buildAnsatz(3, 1, map[string]float64{"gamma0": 0.7, "beta0": -0.3})
	cl, err := stack.Compile(lit)
	if err != nil {
		t.Fatal(err)
	}
	if cl.IsParametric() {
		t.Fatal("literal program must not be parametric")
	}
	if _, err := cl.BindArtefact(map[string]float64{"x": 1}); err == nil {
		t.Fatal("binding a concrete artefact must fail")
	}
	if same, err := cl.BindArtefact(nil); err != nil || same != cl {
		t.Fatal("empty bind of a concrete artefact must be the identity")
	}
}

// TestSymbolicContentHashSharedAcrossBindings: the kernel content hash of
// a symbolic kernel is binding-independent and distinct from any literal
// instantiation, so every binding of one ansatz keys the same prefix and
// full-artefact cache entries.
func TestSymbolicContentHashSharedAcrossBindings(t *testing.T) {
	mk := func() *openql.Kernel {
		k := openql.NewKernel("k", 2)
		k.H(0).RZExpr(0, circuit.Sym("theta").Scale(2)).CNOT(0, 1)
		return k
	}
	h1 := mk().ContentHash(2)
	h2 := mk().ContentHash(2)
	if h1 != h2 {
		t.Fatal("symbolic hash must be deterministic")
	}
	lit := openql.NewKernel("k", 2)
	lit.H(0).RZ(0, 0).CNOT(0, 1)
	if lit.ContentHash(2) == h1 {
		t.Fatal("symbolic kernel must not collide with its placeholder literal form")
	}
	other := openql.NewKernel("k", 2)
	other.H(0).RZExpr(0, circuit.Sym("theta").Scale(3)).CNOT(0, 1)
	if other.ContentHash(2) == h1 {
		t.Fatal("different expressions must hash differently")
	}
}
