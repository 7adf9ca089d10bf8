package openql

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/cqasm"
	"repro/internal/eqasm"
)

func bellProgram() *Program {
	p := NewProgram("bell", 2)
	k := NewKernel("entangle", 2)
	k.H(0).CNOT(0, 1).MeasureAll()
	p.AddKernel(k)
	return p
}

func TestKernelBuilders(t *testing.T) {
	k := NewKernel("k", 3)
	k.H(0).X(1).Y(2).Z(0).RX(0, 0.1).RY(1, 0.2).RZ(2, 0.3).
		CNOT(0, 1).CZ(1, 2).Toffoli(0, 1, 2).
		Measure(0).PrepZ(1).Barrier()
	c := k.Circuit()
	if c.GateCount() != 13 {
		t.Errorf("gates = %d, want 13", c.GateCount())
	}
}

func TestKernelRepeat(t *testing.T) {
	k := NewKernel("loop", 1).X(0).Repeat(3)
	if k.Circuit().GateCount() != 3 {
		t.Errorf("repeat not unrolled: %d", k.Circuit().GateCount())
	}
	if k.Repeat(0).Iterations != 1 {
		t.Error("repeat < 1 should clamp")
	}
}

func TestProgramFlatten(t *testing.T) {
	p := NewProgram("p", 2)
	p.AddKernel(NewKernel("a", 2).H(0))
	p.AddKernel(NewKernel("b", 2).CNOT(0, 1).Repeat(2))
	flat := p.Flatten()
	if flat.GateCount() != 3 {
		t.Errorf("flattened = %d gates, want 3", flat.GateCount())
	}
}

func TestAddKernelPanicsOnOversize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized kernel accepted")
		}
	}()
	NewProgram("p", 1).AddKernel(NewKernel("big", 2))
}

func TestCQASMOutputParses(t *testing.T) {
	text := bellProgram().CQASM()
	if !strings.Contains(text, ".entangle") {
		t.Errorf("kernel name missing:\n%s", text)
	}
	parsed, err := cqasm.Parse(text)
	if err != nil {
		t.Fatalf("emitted cQASM does not parse: %v\n%s", err, text)
	}
	flat := parsed.Flatten()
	if flat.GateCount() != 3 {
		t.Errorf("round-tripped gates = %d", flat.GateCount())
	}
}

func TestCQASMIterations(t *testing.T) {
	p := NewProgram("it", 1)
	p.AddKernel(NewKernel("spin", 1).X(0).Repeat(4))
	text := p.CQASM()
	if !strings.Contains(text, ".spin(4)") {
		t.Errorf("iterations missing:\n%s", text)
	}
}

func TestCompilePerfect(t *testing.T) {
	compiled, err := bellProgram().Compile(CompileOptions{Mode: PerfectQubits})
	if err != nil {
		t.Fatal(err)
	}
	if compiled.EQASM != nil {
		t.Error("perfect mode should not emit eQASM")
	}
	if compiled.Schedule == nil || compiled.Schedule.Makespan == 0 {
		t.Error("no schedule produced")
	}
	if compiled.CQASM() == "" {
		t.Error("no cQASM artefact")
	}
}

func TestCompileRealistic(t *testing.T) {
	compiled, err := bellProgram().Compile(CompileOptions{
		Mode:     RealisticQubits,
		Platform: compiler.Superconducting(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if compiled.EQASM == nil {
		t.Fatal("realistic mode must emit eQASM")
	}
	if compiled.MapResult == nil {
		t.Error("topology platform should produce mapping stats")
	}
	// All gates must be platform primitives after decomposition.
	for _, g := range compiled.Circuit.Gates {
		if g.IsUnitary() && !compiler.Superconducting().Supports(g.Name) {
			t.Errorf("non-primitive gate %q survived", g.Name)
		}
	}
	// eQASM must produce a valid timeline.
	if _, err := compiled.EQASM.Timeline(); err != nil {
		t.Errorf("invalid eQASM: %v", err)
	}
}

func TestCompileOptimizeShrinks(t *testing.T) {
	p := NewProgram("redundant", 1)
	p.AddKernel(NewKernel("k", 1).H(0).H(0).X(0).X(0))
	plain, err := p.Compile(CompileOptions{Passes: "decompose,map,lower-swaps,schedule,assemble"})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := p.Compile(CompileOptions{Passes: compiler.DefaultPassSpec})
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Circuit.Gates) >= len(plain.Circuit.Gates) {
		t.Errorf("optimisation did not shrink: %d vs %d",
			len(opt.Circuit.Gates), len(plain.Circuit.Gates))
	}
}

func TestQubitModeString(t *testing.T) {
	if PerfectQubits.String() != "perfect" || RealisticQubits.String() != "realistic" {
		t.Error("mode strings wrong")
	}
}

func TestGateGenericBuilder(t *testing.T) {
	k := NewKernel("g", 2)
	k.Gate("cphase", []int{0, 1}, 0.5)
	gates := k.Circuit().Gates
	if len(gates) != 1 || gates[0].Name != "cphase" {
		t.Errorf("generic gate failed: %v", gates)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("my kernel-1!"); got != "my_kernel_1_" {
		t.Errorf("sanitize = %q", got)
	}
	if sanitize("") != "kernel" {
		t.Error("empty name")
	}
}

// legacyOptions are the knobs of the pre-pass-manager compiler; the pass
// spec now expresses each of them (see legacySpec).
type legacyOptions struct {
	Mode     QubitMode
	Platform *compiler.Platform
	Optimize bool
	Policy   compiler.Policy
	Mapping  compiler.MapOptions
}

// legacySpec renders legacy knobs (trivial placement, lookahead on or
// off) as the equivalent pass spec.
func legacySpec(opts legacyOptions) string {
	optimize, relower := "", ""
	if opts.Optimize {
		optimize, relower = "optimize,", "optimize-lowered,"
	}
	return fmt.Sprintf("decompose,%smap(lookahead=%v),lower-swaps,%sschedule(policy=%s),assemble",
		optimize, opts.Mapping.Lookahead, relower, opts.Policy)
}

// compileLegacy is a verbatim copy of the pre-pass-manager Program.Compile
// — the hard-wired decompose/optimize/map/schedule chain. It is the
// reference implementation the pass pipeline must reproduce gate for
// gate.
func compileLegacy(p *Program, opts legacyOptions) (*Compiled, error) {
	if opts.Platform == nil {
		opts.Platform = compiler.Perfect(p.NumQubits)
	}
	flat := p.Flatten()
	c, err := compiler.Decompose(flat, opts.Platform)
	if err != nil {
		return nil, err
	}
	if opts.Optimize {
		c = compiler.Optimize(c)
	}
	out := &Compiled{Mode: opts.Mode}
	if opts.Platform.Topology != nil {
		mr, err := compiler.MapCircuit(c, opts.Platform, opts.Mapping)
		if err != nil {
			return nil, err
		}
		out.MapResult = mr
		c = mr.Circuit
		if !opts.Platform.Supports("swap") {
			c, err = compiler.Decompose(c, opts.Platform)
			if err != nil {
				return nil, err
			}
			if opts.Optimize {
				c = compiler.Optimize(c)
			}
		}
	}
	sched, err := compiler.ScheduleCircuit(c, opts.Platform, opts.Policy)
	if err != nil {
		return nil, err
	}
	out.Circuit = c
	out.Schedule = sched
	if opts.Mode == RealisticQubits {
		prog, err := eqasm.Assemble(sched, opts.Platform)
		if err != nil {
			return nil, err
		}
		prog.Name = p.Name
		out.EQASM = prog
	}
	return out, nil
}

// diffCorpus returns randomized + structured programs over n qubits.
func diffCorpus(n int, seed int64) []*Program {
	rng := rand.New(rand.NewSource(seed))
	var progs []*Program
	for i := 0; i < 4; i++ {
		c := circuit.RandomCircuit(n, 2+i, rng)
		for q := 0; q < n; q++ {
			c.Measure(q)
		}
		progs = append(progs, ProgramFromCircuit(fmt.Sprintf("rand%d", i), c))
	}
	// Structured circuits exercising multi-level decomposition, swaps and
	// conditionals.
	s := circuit.New("struct", n)
	s.Toffoli(0, 1, 2).SWAP(0, n-1).CPhase(1, 2, 0.7).H(0).Barrier().T(1)
	g, _ := circuit.NewGate("x", []int{2})
	g.HasCond, g.CondBit = true, 0
	s.Measure(0)
	s.AddGate(g)
	s.MeasureAll()
	progs = append(progs, ProgramFromCircuit("struct", s))
	progs = append(progs, ProgramFromCircuit("qft", circuit.QFT(n, true)))
	return progs
}

// TestDefaultPipelineMatchesLegacy is the refactor's safety net: across a
// randomized corpus and all three platform presets, the pass pipeline
// must emit a compiled artefact — circuit, schedule, eQASM, map result —
// identical to the pre-refactor hard-wired compiler at every point of its
// knob grid (optimize × policy × lookahead), each point compiled as the
// spec that expresses it.
func TestDefaultPipelineMatchesLegacy(t *testing.T) {
	// nativeSwap is a topology-constrained platform with a primitive swap
	// gate: the one configuration class where the classic compiler skipped
	// SWAP lowering *and* the post-routing re-optimisation — the pipeline's
	// optimize-lowered pass must skip there too.
	nativeSwap := func(n int) *compiler.Platform {
		cfg, err := compiler.LoadPlatform([]byte(fmt.Sprintf(`{
			"name": "nativeswap", "qubits": %d, "cycle_time_ns": 20,
			"gates": {"i":{}, "rz":{}, "x90":{}, "mx90":{}, "y90":{}, "my90":{},
			          "cz":{}, "swap":{"duration":3}, "measure":{}, "prep_z":{},
			          "wait":{}, "barrier":{}},
			"topology": {"kind": "linear"}}`, n)))
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	targets := []struct {
		name     string
		mode     QubitMode
		platform func(n int) *compiler.Platform
		qubits   int
	}{
		{"perfect", PerfectQubits, compiler.Perfect, 5},
		{"superconducting", RealisticQubits, func(int) *compiler.Platform { return compiler.Superconducting() }, 5},
		{"semiconducting", RealisticQubits, func(int) *compiler.Platform { return compiler.Semiconducting() }, 5},
		{"native-swap", PerfectQubits, nativeSwap, 5},
	}
	for _, tc := range targets {
		for _, optimize := range []bool{true, false} {
			for _, policy := range []compiler.Policy{compiler.ASAP, compiler.ALAP} {
				for pi, prog := range diffCorpus(tc.qubits, 42) {
					legacy := legacyOptions{
						Mode:     tc.mode,
						Platform: tc.platform(tc.qubits),
						Optimize: optimize,
						Policy:   policy,
						Mapping:  compiler.MapOptions{Lookahead: pi%2 == 0},
					}
					want, errLegacy := compileLegacy(prog, legacy)
					got, errNew := prog.Compile(CompileOptions{
						Mode:     legacy.Mode,
						Platform: legacy.Platform,
						Passes:   legacySpec(legacy),
					})
					label := fmt.Sprintf("%s/opt=%v/%s/%s", tc.name, optimize, policy, prog.Name)
					if (errLegacy == nil) != (errNew == nil) {
						t.Fatalf("%s: error mismatch: legacy %v, pipeline %v", label, errLegacy, errNew)
					}
					if errLegacy != nil {
						continue
					}
					if !reflect.DeepEqual(got.Circuit.Gates, want.Circuit.Gates) {
						t.Fatalf("%s: circuits diverge\nlegacy:\n%s\npipeline:\n%s",
							label, want.Circuit, got.Circuit)
					}
					if got.CQASM() != want.CQASM() {
						t.Fatalf("%s: cQASM diverges", label)
					}
					if !reflect.DeepEqual(got.Schedule, want.Schedule) {
						t.Fatalf("%s: schedules diverge", label)
					}
					if !reflect.DeepEqual(got.MapResult, want.MapResult) {
						t.Fatalf("%s: map results diverge: %+v vs %+v", label, got.MapResult, want.MapResult)
					}
					switch {
					case (got.EQASM == nil) != (want.EQASM == nil):
						t.Fatalf("%s: eQASM presence diverges", label)
					case got.EQASM != nil && got.EQASM.String() != want.EQASM.String():
						t.Fatalf("%s: eQASM diverges", label)
					}
					if got.Report == nil || len(got.Report.Passes) == 0 {
						t.Fatalf("%s: pipeline produced no compile report", label)
					}
				}
			}
		}
	}
}

// TestCompileCustomPassSpec drives the extension point: a custom pipeline
// with the commutation-aware folding pass compiles at least as small a
// circuit, and pass specs missing required stages fail with clear errors.
func TestCompileCustomPassSpec(t *testing.T) {
	c := circuit.New("fold", 3).RZ(0, 0.3).CNOT(0, 1).RZ(0, 0.4).H(2)
	prog := ProgramFromCircuit("fold", c)

	plain, err := prog.Compile(CompileOptions{Passes: "decompose,schedule"})
	if err != nil {
		t.Fatal(err)
	}
	folded, err := prog.Compile(CompileOptions{Passes: "decompose,fold-rotations,schedule"})
	if err != nil {
		t.Fatal(err)
	}
	if len(folded.Circuit.Gates) >= len(plain.Circuit.Gates) {
		t.Errorf("fold-rotations pass did not shrink the circuit: %d vs %d gates",
			len(folded.Circuit.Gates), len(plain.Circuit.Gates))
	}
	if folded.Report.PassSpec != "decompose,fold-rotations,schedule" {
		t.Errorf("report spec %q", folded.Report.PassSpec)
	}
}

func TestCompileRejectsBadPassSpecs(t *testing.T) {
	prog := bellProgram()
	if _, err := prog.Compile(CompileOptions{Passes: "decompose,teleport"}); err == nil ||
		!strings.Contains(err.Error(), "unknown pass") {
		t.Errorf("unknown pass not rejected clearly: %v", err)
	}
	if _, err := prog.Compile(CompileOptions{Passes: "decompose,optimize"}); err == nil ||
		!strings.Contains(err.Error(), "schedule") {
		t.Errorf("schedule-less spec not rejected clearly: %v", err)
	}
	if _, err := prog.Compile(CompileOptions{
		Mode:     RealisticQubits,
		Platform: compiler.Superconducting(),
		Passes:   "decompose,optimize,map,lower-swaps,schedule",
	}); err == nil || !strings.Contains(err.Error(), "assemble") {
		t.Errorf("assemble-less realistic spec not rejected clearly: %v", err)
	}
}

// The ISSUE's canonical example spec must work end to end on a perfect
// target (assemble is optional there).
func TestCompileExampleSpecPerfect(t *testing.T) {
	compiled, err := bellProgram().Compile(CompileOptions{Passes: "decompose,optimize,map,schedule"})
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Schedule == nil || compiled.Report == nil {
		t.Fatal("example spec produced incomplete artefacts")
	}
	if got := len(compiled.Report.Passes); got != 4 {
		t.Errorf("%d pass metrics, want 4", got)
	}
}
