package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/openql"
	"repro/internal/qx"
)

func bell() *openql.Program {
	p := openql.NewProgram("bell", 2)
	p.AddKernel(openql.NewKernel("entangle", 2).H(0).CNOT(0, 1).Measure(0).Measure(1))
	return p
}

func TestPerfectStackBell(t *testing.T) {
	s := NewPerfect(2, 1)
	compiled, err := s.Compile(bell())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunCompiled(compiled, 2, 2000, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if compiled.EQASM != nil || rep.Trace != nil {
		t.Error("perfect stack should not touch the micro-architecture")
	}
	p00 := rep.Result.Probability(0)
	p11 := rep.Result.Probability(3)
	if math.Abs(p00-0.5) > 0.05 || math.Abs(p11-0.5) > 0.05 {
		t.Errorf("Bell stats p00=%v p11=%v", p00, p11)
	}
	if !strings.Contains(compiled.CQASM(), "cnot") {
		t.Error("cQASM artefact missing")
	}
	if rep.WallNs <= 0 {
		t.Error("no modelled wall time")
	}
}

func TestSuperconductingStackBell(t *testing.T) {
	s := NewSuperconducting(2)
	const shots = 500
	compiled, err := s.Compile(bell())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunCompiled(compiled, 2, shots, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if compiled.EQASM == nil || rep.Trace == nil {
		t.Fatal("realistic stack must produce eQASM and a pulse trace")
	}
	// Realistic qubits: correct outcomes dominate but errors exist. The
	// Bell pair routes through Surface-17 ancillas (data qubits are not
	// directly coupled), so several noisy CZs are involved.
	good := rep.Result.Counts[0] + rep.Result.Counts[3]
	if good == shots {
		t.Error("no errors on realistic qubits — noise not applied")
	}
	if float64(good)/shots < 0.5 {
		t.Errorf("too noisy: %d/%d correlated outcomes", good, shots)
	}
	if !strings.Contains(compiled.EQASM.String(), "bs ") {
		t.Error("eQASM bundles missing")
	}
	if rep.Mapping == nil {
		t.Error("Surface-17 stack should report mapping")
	}
}

func TestSemiconductingRetarget(t *testing.T) {
	// The same program runs on the semiconducting stack; wall-clock per
	// shot must be longer (100 ns cycles vs 20 ns).
	scRep, err := NewSuperconducting(3).Execute(bell(), 100)
	if err != nil {
		t.Fatal(err)
	}
	semiRep, err := NewSemiconducting(3).Execute(bell(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if semiRep.WallNs <= scRep.WallNs {
		t.Errorf("semiconducting (%d ns) should be slower than superconducting (%d ns)",
			semiRep.WallNs, scRep.WallNs)
	}
}

func TestStackRejectsOversizedProgram(t *testing.T) {
	p := openql.NewProgram("big", 64)
	p.AddKernel(openql.NewKernel("k", 64).H(63))
	if _, err := NewSuperconducting(1).Execute(p, 10); err == nil {
		t.Error("64-qubit program accepted on 17-qubit stack")
	}
}

func TestStackEngineOption(t *testing.T) {
	// The same seeded program must yield identical counts on both engines,
	// across the perfect and the realistic stack.
	for _, build := range []func() *Stack{
		func() *Stack { return NewPerfect(2, 7) },
		func() *Stack { return NewSuperconducting(7) },
	} {
		ref := build()
		ref.Engine = qx.Reference()
		opt := build()
		opt.Engine = qx.Optimized()
		repRef, err := ref.Execute(bell(), 300)
		if err != nil {
			t.Fatal(err)
		}
		repOpt, err := opt.Execute(bell(), 300)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(repRef.Result.Counts, repOpt.Result.Counts) {
			t.Errorf("stack %s: engines diverge: %v vs %v",
				ref.Name, repRef.Result.Counts, repOpt.Result.Counts)
		}
		// Compilation is engine-independent, so the compile-cache half of
		// the key must not fragment across engines.
		if ref.CompileFingerprint() != opt.CompileFingerprint() {
			t.Errorf("stack %s: compile fingerprint varies with engine", ref.Name)
		}
	}
}

// A stack with no pinned engine runs auto: a Clifford program reports
// the tableau wherever the noise model is Pauli-only (the perfect
// stack), the dense engine where T1 damping rules the tableau out (the
// calibrated transmon) or the circuit is non-Clifford, and its counts
// equal the same stack pinned to either dense engine.
func TestDefaultEngineIsAuto(t *testing.T) {
	ghz := openql.NewProgram("ghz", 3)
	ghz.AddKernel(openql.NewKernel("ghz", 3).H(0).CNOT(0, 1).CNOT(1, 2).Measure(0).Measure(1).Measure(2))
	for _, tc := range []struct {
		build  func() *Stack
		engine string
	}{
		{func() *Stack { return NewPerfect(3, 11) }, qx.EngineStabilizer},
		{func() *Stack { return NewSuperconducting(11) }, qx.EngineOptimized},
	} {
		rep, err := tc.build().Execute(ghz, 300)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Engine != tc.engine {
			t.Errorf("stack %s: default engine ran %q, want %q", rep.Stack, rep.Engine, tc.engine)
		}
		for _, pin := range []qx.Engine{qx.Optimized(), qx.Reference()} {
			s := tc.build()
			s.Engine = pin
			pinned, err := s.Execute(ghz, 300)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.Result.Counts, pinned.Result.Counts) {
				t.Errorf("stack %s: default counts %v differ from %s %v",
					rep.Stack, rep.Result.Counts, pin.Name(), pinned.Result.Counts)
			}
		}
	}
	ht := openql.NewProgram("ht", 1)
	ht.AddKernel(openql.NewKernel("ht", 1).H(0).Gate("t", []int{0}).Measure(0))
	rep, err := NewPerfect(1, 11).Execute(ht, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != qx.EngineOptimized {
		t.Errorf("non-Clifford program ran on %q, want %q", rep.Engine, qx.EngineOptimized)
	}
}

func TestStackParallelShots(t *testing.T) {
	// Run both stack modes at the parallel-batch threshold and check the
	// merged statistics stay coherent.
	perfect := NewPerfect(2, 11)
	rep, err := perfect.Execute(bell(), ParallelShots)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for idx, n := range rep.Result.Counts {
		if idx != 0 && idx != 3 {
			t.Errorf("impossible Bell outcome %d", idx)
		}
		total += n
	}
	if total != ParallelShots {
		t.Errorf("parallel perfect run merged %d shots, want %d", total, ParallelShots)
	}

	noisy := NewSuperconducting(11)
	repN, err := noisy.Execute(bell(), ParallelShots)
	if err != nil {
		t.Fatal(err)
	}
	totalN := 0
	for _, n := range repN.Result.Counts {
		totalN += n
	}
	if totalN != ParallelShots {
		t.Errorf("parallel realistic run merged %d shots, want %d", totalN, ParallelShots)
	}
}

func TestPerfectVsRealisticFidelity(t *testing.T) {
	// E2: the same logic on both stacks; perfect gives ideal stats,
	// realistic degrades — the paper's Fig 2 distinction.
	ghz := openql.NewProgram("ghz4", 4)
	k := openql.NewKernel("g", 4).H(0).CNOT(0, 1).CNOT(1, 2).CNOT(2, 3).
		Measure(0).Measure(1).Measure(2).Measure(3)
	ghz.AddKernel(k)

	perfect, err := NewPerfect(4, 5).Execute(ghz, 400)
	if err != nil {
		t.Fatal(err)
	}
	if perfect.Result.Counts[0]+perfect.Result.Counts[15] != 400 {
		t.Error("perfect GHZ has spurious outcomes")
	}
	realistic, err := NewSuperconducting(5).Execute(ghz, 400)
	if err != nil {
		t.Fatal(err)
	}
	goodR := realistic.Result.Counts[0] + realistic.Result.Counts[15]
	if goodR >= 400 {
		t.Error("realistic GHZ shows no degradation")
	}
}

// CompileFingerprint must separate every compile-relevant configuration
// — each a pass-spec variant — so no two distinct configurations alias,
// while excluding execution-only settings (engine, seed, kernel
// parallelism).
func TestCompileFingerprintExplicitFields(t *testing.T) {
	base := func() *Stack { return NewPerfect(4, 1) }
	variants := []struct {
		name, passes string
	}{
		{"optimize", "decompose,map,lower-swaps,schedule,assemble"},
		{"policy", "decompose,optimize,map,lower-swaps,optimize-lowered,schedule(policy=alap),assemble"},
		{"placement", "decompose,optimize,map(placement=greedy),lower-swaps,optimize-lowered,schedule,assemble"},
		{"lookahead", "decompose,optimize,map(lookahead=true),lower-swaps,optimize-lowered,schedule,assemble"},
		{"lookahead-window", "decompose,optimize,map(lookahead=9),lower-swaps,optimize-lowered,schedule,assemble"},
		{"strategy", "decompose,optimize,map(strategy=noise),lower-swaps,optimize-lowered,schedule,assemble"},
		{"passes", "decompose,schedule"},
	}
	ref := base().CompileFingerprint()
	seen := map[string]string{"": ref}
	for _, v := range variants {
		s := base()
		s.Passes = v.passes
		fp := s.CompileFingerprint()
		if fp == ref {
			t.Errorf("%s: variant does not change the compile fingerprint", v.name)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s aliases %q: %s", v.name, prev, fp)
		}
		seen[fp] = v.name
	}
	// Execution-only settings must NOT change the compile fingerprint —
	// the compile cache would needlessly fragment.
	s := base()
	s.Engine = qx.Reference()
	s.Seed = 999
	s.KernelWorkers = 3
	if s.CompileFingerprint() != ref {
		t.Error("execution-only settings leaked into the compile fingerprint")
	}
	// Canonicalisation: an explicit spec equal to the default must share
	// the fingerprint (and thus cache entries) with the default-configured
	// stack.
	c := base()
	c.Passes = compiler.DefaultPassSpec
	if c.CompileFingerprint() != ref {
		t.Error("explicit default spec fragments the compile fingerprint")
	}
}

// Equivalent spellings of one pass spec — whitespace, option order —
// compile identically, so they must key one full-artefact cache entry
// instead of compiling twice.
func TestCompileFingerprintCanonicalSpec(t *testing.T) {
	for _, tc := range []struct{ a, b string }{
		{"decompose, optimize,map,lower-swaps,optimize-lowered,schedule,assemble", ""},
		{"decompose,map(window=4,lookahead=true),schedule", "decompose,map(lookahead=true,window=4),schedule"},
		{" decompose , map( strategy=noise , placement=greedy ), schedule( policy = alap )",
			"decompose,map(placement=greedy,strategy=noise),schedule(policy=alap)"},
	} {
		a, b := NewSuperconducting(1), NewSuperconducting(1)
		a.Passes, b.Passes = tc.a, tc.b
		if a.CompileFingerprint() != b.CompileFingerprint() {
			t.Errorf("%q and %q key different compile-cache entries:\n%s\n%s",
				tc.a, tc.b, a.CompileFingerprint(), b.CompileFingerprint())
		}
	}
}

// Stack.Passes threads through Compile and the report carries the
// per-pass metrics end to end.
func TestStackPassesOption(t *testing.T) {
	s := NewPerfect(3, 1)
	s.Passes = "decompose,fold-rotations,optimize,schedule"
	rep, err := s.Execute(bell(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compile == nil || rep.Compile.PassSpec != s.Passes {
		t.Fatalf("compile report missing or wrong spec: %+v", rep.Compile)
	}
	if len(rep.Compile.Passes) != 4 {
		t.Errorf("%d pass metrics, want 4", len(rep.Compile.Passes))
	}

	s.Passes = "optimize"
	if _, err := s.Execute(bell(), 8); err == nil {
		t.Error("schedule-less pass spec accepted")
	}
	s.Passes = "no-such-pass"
	if _, err := s.Execute(bell(), 8); err == nil {
		t.Error("unknown pass spec accepted")
	}
}
