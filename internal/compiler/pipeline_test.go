package compiler

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/topology"
)

func TestPassRegistryHasBuiltins(t *testing.T) {
	for _, name := range []string{"decompose", "optimize", "map", "lower-swaps", "optimize-lowered", "fold-rotations", "schedule", "assemble"} {
		if lookupPass(name) == nil {
			t.Errorf("built-in pass %q not registered", name)
		}
	}
	names := PassNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("PassNames not sorted: %v", names)
		}
	}
}

func TestParsePassSpecErrors(t *testing.T) {
	for _, spec := range []string{"", "   ", "decompose,,schedule", "decompose,teleport"} {
		if _, err := NewPipeline(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	// Unknown-pass errors list the available passes.
	_, err := NewPipeline("teleport")
	if err == nil || !strings.Contains(err.Error(), "decompose") {
		t.Errorf("unknown-pass error does not list available passes: %v", err)
	}
	pl, err := NewPipeline(" decompose , optimize,schedule ")
	if err != nil {
		t.Fatalf("whitespace-padded spec rejected: %v", err)
	}
	if passes := pl.Passes(); len(passes) != 3 || passes[0] != "decompose" || passes[2] != "schedule" {
		t.Errorf("parsed passes wrong: %v", passes)
	}
}

func TestPipelineRunRecordsMetrics(t *testing.T) {
	c := circuit.New("pipe", 3).Toffoli(0, 1, 2).H(0).H(0)
	pl, err := NewPipeline("decompose,optimize,map,lower-swaps,schedule")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &PassContext{Platform: nisqPlatform(3), Circuit: c}
	rep, err := pl.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Schedule == nil {
		t.Fatal("schedule pass produced no schedule")
	}
	if len(rep.Passes) != 5 {
		t.Fatalf("%d pass metrics, want 5", len(rep.Passes))
	}
	dec := rep.Passes[0]
	if dec.Pass != "decompose" || dec.GatesBefore != 3 || dec.GatesAfter <= 3 {
		t.Errorf("decompose metrics wrong: %+v", dec)
	}
	opt := rep.Passes[1]
	if opt.GatesBefore != dec.GatesAfter || opt.GatesAfter >= opt.GatesBefore {
		t.Errorf("optimize metrics wrong: %+v (h·h should cancel)", opt)
	}
	var total int64
	for _, m := range rep.Passes {
		if m.WallNs < 0 {
			t.Errorf("pass %s has negative wall time", m.Pass)
		}
		total += m.WallNs
	}
	if rep.TotalNs != total {
		t.Errorf("TotalNs %d != sum of passes %d", rep.TotalNs, total)
	}
	if !strings.Contains(rep.String(), "decompose") {
		t.Error("report table missing pass rows")
	}
}

func TestPipelineMapRecordsAddedSwaps(t *testing.T) {
	// Linear topology forces routing SWAPs for the distant pair.
	p := &Platform{Name: "lin", NumQubits: 4, CycleTimeNs: 1,
		Gates: map[string]GateInfo{}, Topology: topology.Linear(4)}
	c := circuit.New("far", 4).CNOT(0, 3)
	pl, err := NewPipeline("map,schedule")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &PassContext{Platform: p, Circuit: c}
	rep, err := pl.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.MapResult == nil || ctx.MapResult.AddedSwaps == 0 {
		t.Fatal("routing inserted no swaps on a linear topology")
	}
	if rep.Passes[0].AddedSwaps != ctx.MapResult.AddedSwaps {
		t.Errorf("map pass recorded %d swaps, MapResult has %d",
			rep.Passes[0].AddedSwaps, ctx.MapResult.AddedSwaps)
	}
}

func TestPipelineReportsFailingPass(t *testing.T) {
	// Mapping rejects 3-qubit gates: the error must name the pass.
	p := &Platform{Name: "lin", NumQubits: 3, CycleTimeNs: 1,
		Gates: map[string]GateInfo{}, Topology: topology.Linear(3)}
	c := circuit.New("bad", 3).Toffoli(0, 1, 2)
	pl, err := NewPipeline("map,schedule")
	if err != nil {
		t.Fatal(err)
	}
	_, err = pl.Run(&PassContext{Platform: p, Circuit: c})
	if err == nil || !strings.Contains(err.Error(), `pass "map"`) {
		t.Errorf("error does not name the failing pass: %v", err)
	}
}

func TestDefaultPassSpecParses(t *testing.T) {
	pl, err := NewPipeline(DefaultPassSpec)
	if err != nil {
		t.Fatalf("default spec does not parse: %v", err)
	}
	// The default is its own canonical rendering, so a stack naming it
	// explicitly keys the same compile-cache entries as one naming none.
	if got := pl.Canonical(); got != DefaultPassSpec {
		t.Errorf("default spec renders canonically as %q", got)
	}
	if !strings.Contains(DefaultPassSpec, "optimize,") {
		t.Errorf("default spec %q does not optimise", DefaultPassSpec)
	}
}

// CheckStages refuses, before anything runs, pipelines that cannot yield
// an executable artefact: no schedule, or — for a realistic target — no
// assemble after the schedule.
func TestCheckStages(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		assemble bool
		wantMsg  string // empty: accepted
	}{
		{DefaultPassSpec, true, ""},
		{DefaultPassSpec, false, ""},
		{"decompose,schedule", false, ""},
		{"decompose,schedule,assemble,schedule", true, ""},
		{"decompose,optimize", false, `include the "schedule" pass`},
		{"decompose,assemble", true, `include the "schedule" pass`},
		{"decompose,map,schedule", true, `include the "assemble" pass`},
		{"decompose,assemble,schedule", true, `include the "assemble" pass`},
		{"decompose,assemble,schedule", false, ""},
	} {
		pl, err := NewPipeline(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		err = pl.CheckStages(tc.assemble)
		if tc.wantMsg == "" {
			if err != nil {
				t.Errorf("%s (assemble=%v): %v", tc.spec, tc.assemble, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("%s (assemble=%v): error %v, want %q", tc.spec, tc.assemble, err, tc.wantMsg)
		}
	}
}

func TestFoldRotationsAcrossCNOTControl(t *testing.T) {
	// rz q0; cnot q0,q1; rz q0 — the peephole merge cannot cross the
	// CNOT; commutation-aware folding can (rz is diagonal on the control).
	c := circuit.New("fold", 2).RZ(0, 0.3).CNOT(0, 1).RZ(0, 0.4)
	out := FoldRotations(c)
	if out.GateCount("rz") != 1 {
		t.Fatalf("rz count %d after folding, want 1\n%s", out.GateCount("rz"), out)
	}
	if Optimize(c).GateCount("rz") != 2 {
		t.Error("peephole already merges across CNOT; fold pass is not a stronger test")
	}
	if !circuitUnitary(out).EqualUpToPhase(circuitUnitary(c), 1e-9) {
		t.Error("folding changed the unitary")
	}
}

func TestFoldRotationsAcrossToffoliControls(t *testing.T) {
	// The commutation table marks both toffoli operands 0 and 1 as
	// controls: rz on either folds across; rz on the target must not.
	for _, q := range []int{0, 1} {
		c := circuit.New("tof", 3).RZ(q, 0.3).Toffoli(0, 1, 2).RZ(q, 0.4)
		out := FoldRotations(c)
		if out.GateCount("rz") != 1 {
			t.Fatalf("rz on toffoli control %d not folded: %s", q, out)
		}
		if !circuitUnitary(out).EqualUpToPhase(circuitUnitary(c), 1e-9) {
			t.Errorf("folding across toffoli control %d changed the unitary", q)
		}
	}
	c := circuit.New("toftgt", 3).RZ(2, 0.3).Toffoli(0, 1, 2).RZ(2, 0.4)
	if out := FoldRotations(c); out.GateCount("rz") != 2 {
		t.Fatalf("fold merged across a toffoli target: %s", out)
	}
}

func TestFoldRotationsBlockedByTarget(t *testing.T) {
	// rz on the CNOT *target* does not commute — folding must not merge.
	c := circuit.New("block", 2).RZ(1, 0.3).CNOT(0, 1).RZ(1, 0.4)
	out := FoldRotations(c)
	if out.GateCount("rz") != 2 {
		t.Fatalf("fold merged across a CNOT target: %s", out)
	}
}

func TestFoldRotationsDropsZeroAngle(t *testing.T) {
	c := circuit.New("zero", 2).RZ(0, 0.7).CZ(0, 1).RZ(0, -0.7)
	out := FoldRotations(c)
	if out.GateCount("rz") != 0 {
		t.Fatalf("cancelling rotations not removed: %s", out)
	}
	if out.GateCount("cz") != 1 {
		t.Error("cz lost")
	}
}

func TestFoldRotationsRespectsMeasurementAndConditionals(t *testing.T) {
	c := circuit.New("meas", 2).RZ(0, 0.3)
	c.Measure(0)
	c.RZ(0, 0.4)
	if out := FoldRotations(c); out.GateCount("rz") != 2 {
		t.Errorf("folded across a measurement: %s", out)
	}

	cc := circuit.New("cond", 2).RZ(0, 0.3)
	g, err := circuit.NewGate("x", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	g.HasCond, g.CondBit = true, 1
	cc.AddGate(g)
	cc.RZ(0, 0.4)
	if out := FoldRotations(cc); out.GateCount("rz") != 2 {
		t.Errorf("folded across a conditional gate: %s", out)
	}
}

// Property: on random circuits over a diagonal-heavy gate set, folding
// preserves the unitary up to global phase and never grows the circuit.
func TestFoldRotationsProperty(t *testing.T) {
	gates := []func(c *circuit.Circuit, rng *rand.Rand){
		func(c *circuit.Circuit, rng *rand.Rand) { c.RZ(rng.Intn(3), rng.Float64()*2*math.Pi) },
		func(c *circuit.Circuit, rng *rand.Rand) { c.H(rng.Intn(3)) },
		func(c *circuit.Circuit, rng *rand.Rand) { c.T(rng.Intn(3)) },
		func(c *circuit.Circuit, rng *rand.Rand) { c.S(rng.Intn(3)) },
		func(c *circuit.Circuit, rng *rand.Rand) {
			a := rng.Intn(3)
			c.CNOT(a, (a+1+rng.Intn(2))%3)
		},
		func(c *circuit.Circuit, rng *rand.Rand) {
			a := rng.Intn(3)
			c.CZ(a, (a+1+rng.Intn(2))%3)
		},
		func(c *circuit.Circuit, rng *rand.Rand) {
			a := rng.Intn(3)
			c.CPhase(a, (a+1+rng.Intn(2))%3, rng.Float64())
		},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.New("prop", 3)
		for i := 0; i < 24; i++ {
			gates[rng.Intn(len(gates))](c, rng)
		}
		out := FoldRotations(c)
		if len(out.Gates) > len(c.Gates) {
			return false
		}
		return circuitUnitary(out).EqualUpToPhase(circuitUnitary(c), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The pipeline rescans depth only after a pass that replaced the
// circuit; every recorded gate count and depth must still be what a
// fresh scan of the circuit before and after each pass gives.
func TestPipelineMetricsMatchPerPassScan(t *testing.T) {
	p := Superconducting()
	c := circuit.New("metrics", 5).H(0).CNOT(0, 4).Toffoli(1, 2, 3).H(2).H(2).CNOT(3, 0).Measure(4).Measure(0)
	pl, err := NewPipeline(DefaultPassSpec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.Run(&PassContext{Platform: p, Circuit: c})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &PassContext{Platform: p, Circuit: c}
	for i, bp := range pl.passes {
		want := PassMetrics{Pass: bp.Pass.Name(), GatesBefore: len(ctx.Circuit.Gates), DepthBefore: ctx.Circuit.Depth()}
		ctx.Options = bp.Options
		if err := bp.Pass.Run(ctx); err != nil {
			t.Fatal(err)
		}
		want.GatesAfter, want.DepthAfter = len(ctx.Circuit.Gates), ctx.Circuit.Depth()
		got := rep.Passes[i]
		got.WallNs, got.AddedSwaps = 0, 0
		if got != want {
			t.Errorf("pass %d: metrics %+v, a fresh scan gives %+v", i, got, want)
		}
	}
}
