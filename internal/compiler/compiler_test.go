package compiler

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/quantum"
	"repro/internal/topology"
)

// circuitUnitary computes the full unitary of a (measurement-free)
// circuit by applying it to every basis state.
func circuitUnitary(c *circuit.Circuit) quantum.Matrix {
	dim := 1 << uint(c.NumQubits)
	m := quantum.NewMatrix(dim)
	for col := 0; col < dim; col++ {
		s := quantum.NewState(c.NumQubits)
		s.PrepareBasis(col)
		for _, g := range c.Gates {
			if !g.IsUnitary() {
				continue
			}
			u, err := g.Matrix()
			if err != nil {
				panic(err)
			}
			s.Apply(u, g.Qubits...)
		}
		for row := 0; row < dim; row++ {
			m.Set(row, col, s.Amplitude(row))
		}
	}
	return m
}

// embedGate builds the full-register unitary of a single gate.
func embedGate(t *testing.T, name string, n int, qubits []int, params ...float64) quantum.Matrix {
	t.Helper()
	c := circuit.New("embed", n)
	c.Add(name, qubits, params...)
	return circuitUnitary(c)
}

func nisqPlatform(n int) *Platform {
	return &Platform{
		Name:        "nisq-test",
		NumQubits:   n,
		CycleTimeNs: 20,
		Gates:       nisqGates(1, 2, 15, 10),
	}
}

// TestDecomposeEveryRule checks that decomposing each registered gate to
// the NISQ primitive set preserves the unitary up to global phase.
func TestDecomposeEveryRule(t *testing.T) {
	p := nisqPlatform(3)
	for _, name := range circuit.Names() {
		spec, _ := circuit.Lookup(name)
		qubits := make([]int, spec.Arity)
		for i := range qubits {
			qubits[i] = i
		}
		params := make([]float64, spec.NumParams)
		for i := range params {
			params[i] = 0.9 - 0.35*float64(i)
		}
		c := circuit.New("one", 3)
		c.Add(name, qubits, params...)
		dec, err := Decompose(c, p)
		if err != nil {
			t.Errorf("%s: decompose failed: %v", name, err)
			continue
		}
		for _, g := range dec.Gates {
			if !p.Supports(g.Name) {
				t.Errorf("%s: non-primitive %q survived decomposition", name, g.Name)
			}
		}
		want := circuitUnitary(c)
		got := circuitUnitary(dec)
		if !got.EqualUpToPhase(want, 1e-8) {
			t.Errorf("%s: decomposition changed the unitary", name)
		}
	}
}

func TestDecomposePassThroughForPerfect(t *testing.T) {
	c := circuit.New("p", 3).Toffoli(0, 1, 2).H(0)
	dec, err := Decompose(c, Perfect(3))
	if err != nil {
		t.Fatal(err)
	}
	if dec.GateCount() != 2 {
		t.Errorf("perfect platform decomposed anyway: %d gates", dec.GateCount())
	}
}

func TestDecomposeKeepsMeasurement(t *testing.T) {
	c := circuit.New("m", 2).H(0).Measure(0)
	dec, err := Decompose(c, nisqPlatform(2))
	if err != nil {
		t.Fatal(err)
	}
	if dec.GateCount(circuit.OpMeasure) != 1 {
		t.Error("measurement lost")
	}
}

// Property: decomposition of random circuits preserves the unitary up to
// phase.
func TestDecomposeProperty(t *testing.T) {
	p := nisqPlatform(4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.RandomCircuit(3, 3, rng)
		dec, err := Decompose(c, p)
		if err != nil {
			return false
		}
		return circuitUnitary(dec).EqualUpToPhase(circuitUnitary(c), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestOptimizeCancelsPairs(t *testing.T) {
	c := circuit.New("o", 2)
	c.H(0).H(0).X(1).CNOT(0, 1).CNOT(0, 1).X(1)
	opt := Optimize(c)
	if opt.GateCount() != 0 {
		t.Errorf("expected full cancellation, got %d gates: %v", opt.GateCount(), opt.Gates)
	}
}

func TestOptimizeCancelsNamedInverses(t *testing.T) {
	c := circuit.New("o2", 1).S(0).Sdag(0).T(0).Tdag(0)
	opt := Optimize(c)
	if opt.GateCount() != 0 {
		t.Errorf("s/sdag t/tdag not cancelled: %v", opt.Gates)
	}
}

func TestOptimizeMergesRotations(t *testing.T) {
	c := circuit.New("r", 1).RZ(0, 0.5).RZ(0, 0.7).RZ(0, -1.2)
	opt := Optimize(c)
	if opt.GateCount() != 0 {
		t.Errorf("rz sum to zero should vanish, got %v", opt.Gates)
	}
	c2 := circuit.New("r2", 1).RX(0, 0.5).RX(0, 0.25)
	opt2 := Optimize(c2)
	if opt2.GateCount() != 1 || math.Abs(opt2.Gates[0].Params[0]-0.75) > 1e-12 {
		t.Errorf("rx merge wrong: %v", opt2.Gates)
	}
}

func TestOptimizeRespectsInterveningGates(t *testing.T) {
	c := circuit.New("i", 1).H(0).X(0).H(0)
	opt := Optimize(c)
	if opt.GateCount() != 3 {
		t.Errorf("H X H wrongly optimised to %v", opt.Gates)
	}
}

func TestOptimizeRespectsMeasurement(t *testing.T) {
	c := circuit.New("m", 1).H(0).Measure(0).H(0)
	opt := Optimize(c)
	if opt.GateCount("h") != 2 {
		t.Errorf("H measure H wrongly cancelled: %v", opt.Gates)
	}
}

func TestOptimizeDropsIdentities(t *testing.T) {
	c := circuit.New("id", 1).I(0).RZ(0, 0).I(0)
	if got := Optimize(c).GateCount(); got != 0 {
		t.Errorf("identities survived: %d", got)
	}
}

// Property: optimisation preserves the unitary exactly up to phase.
func TestOptimizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.RandomCircuit(3, 4, rng)
		// Insert some redundant pairs to exercise cancellation.
		c.H(0).H(0).S(1).Sdag(1)
		opt := Optimize(c)
		if opt.GateCount() > c.GateCount() {
			return false
		}
		return circuitUnitary(opt).EqualUpToPhase(circuitUnitary(c), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestScheduleASAPRespectsDependencies(t *testing.T) {
	p := nisqPlatform(3)
	c := circuit.New("s", 3)
	c.Add("x90", []int{0})
	c.Add("cz", []int{0, 1})
	c.Add("x90", []int{2})
	sched, err := ScheduleCircuit(c, p, ASAP)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(p); err != nil {
		t.Fatal(err)
	}
	// x90 on q2 can start at 0 in parallel with x90 on q0; cz waits.
	byName := map[string]ScheduledGate{}
	for _, sg := range sched.Gates {
		byName[sg.Gate.String()] = sg
	}
	if byName["x90 q[2]"].Cycle != 0 {
		t.Errorf("independent gate delayed to %d", byName["x90 q[2]"].Cycle)
	}
	if byName["cz q[0], q[1]"].Cycle != 1 {
		t.Errorf("cz scheduled at %d, want 1", byName["cz q[0], q[1]"].Cycle)
	}
	if sched.Makespan != 3 {
		t.Errorf("makespan %d, want 3", sched.Makespan)
	}
}

func TestScheduleALAPDelaysEarlyGates(t *testing.T) {
	p := nisqPlatform(3)
	c := circuit.New("alap", 3)
	c.Add("x90", []int{2}) // only needed by the final cz: has slack
	c.Add("x90", []int{0})
	c.Add("cz", []int{0, 1})
	c.Add("cz", []int{1, 2})
	asap, _ := ScheduleCircuit(c, p, ASAP)
	alap, err := ScheduleCircuit(c, p, ALAP)
	if err != nil {
		t.Fatal(err)
	}
	if err := alap.Validate(p); err != nil {
		t.Fatal(err)
	}
	if alap.Makespan != asap.Makespan {
		t.Errorf("ALAP makespan %d != ASAP %d", alap.Makespan, asap.Makespan)
	}
	// ASAP puts x90 q2 at cycle 0; ALAP must push it to cycle 2, right
	// before its consumer cz(1,2) which starts at 3.
	for _, sg := range alap.Gates {
		if sg.Gate.String() == "x90 q[2]" && sg.Cycle != 2 {
			t.Errorf("ALAP put x90 q[2] at cycle %d, want 2", sg.Cycle)
		}
	}
}

func TestScheduleChannelLimit(t *testing.T) {
	p := nisqPlatform(4)
	p.MaxParallelOps = 1
	c := circuit.New("lim", 4)
	for q := 0; q < 4; q++ {
		c.Add("x90", []int{q})
	}
	sched, err := ScheduleCircuit(c, p, ASAP)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(p); err != nil {
		t.Fatal(err)
	}
	if sched.Makespan != 4 {
		t.Errorf("serialised makespan %d, want 4", sched.Makespan)
	}
}

func TestScheduleBarrier(t *testing.T) {
	p := nisqPlatform(2)
	c := circuit.New("bar", 2)
	c.Add("measure", []int{0}) // 15 cycles
	c.Barrier()
	c.Add("x90", []int{1})
	sched, _ := ScheduleCircuit(c, p, ASAP)
	for _, sg := range sched.Gates {
		if sg.Gate.Name == "x90" && sg.Cycle < 15 {
			t.Errorf("barrier ignored: x90 at %d", sg.Cycle)
		}
	}
}

func TestMapAllToAllIsIdentity(t *testing.T) {
	c := circuit.Bell()
	res, err := MapCircuit(c, Perfect(2), MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AddedSwaps != 0 || res.Circuit.GateCount() != c.GateCount() {
		t.Error("all-to-all mapping modified circuit")
	}
}

func TestMapLinearInsertsSwaps(t *testing.T) {
	p := &Platform{Name: "lin", NumQubits: 5, Gates: nisqGates(1, 2, 15, 10), Topology: topology.Linear(5)}
	c := circuit.New("far", 5)
	c.Add("cz", []int{0, 4})
	res, err := MapCircuit(c, p, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AddedSwaps != 3 {
		t.Errorf("swaps = %d, want 3 (distance 4 → 3 swaps)", res.AddedSwaps)
	}
	// Every two-qubit gate in the result must be NN.
	for _, g := range res.Circuit.Gates {
		if g.IsTwoQubit() && !p.Topology.Adjacent(g.Qubits[0], g.Qubits[1]) {
			t.Errorf("non-adjacent gate survived: %v", g)
		}
	}
}

// mapPreservesSemantics checks that the mapped circuit equals the original
// under the final layout permutation: for each logical basis input, the
// output distributions agree modulo qubit relabelling.
func mapPreservesSemantics(t *testing.T, c *circuit.Circuit, p *Platform, opts MapOptions) {
	t.Helper()
	res, err := MapCircuit(c, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := c.NumQubits
	// Simulate original.
	orig := quantum.NewState(n)
	for _, g := range c.Gates {
		m, _ := g.Matrix()
		orig.Apply(m, g.Qubits...)
	}
	// Simulate mapped on the full physical register, with logical qubit l
	// starting at physical res.InitialLayout[l].
	phys := quantum.NewState(res.Circuit.NumQubits)
	for _, g := range res.Circuit.Gates {
		m, _ := g.Matrix()
		phys.Apply(m, g.Qubits...)
	}
	// Compare per-basis probabilities after permuting physical indices
	// back through the final layout.
	pOrig := orig.Probabilities()
	pPhys := phys.Probabilities()
	agg := make([]float64, len(pOrig))
	for idx, prob := range pPhys {
		if prob == 0 {
			continue
		}
		logical := 0
		for l := 0; l < n; l++ {
			if idx&(1<<uint(res.FinalLayout[l])) != 0 {
				logical |= 1 << uint(l)
			}
		}
		agg[logical] += prob
	}
	for i := range pOrig {
		if math.Abs(pOrig[i]-agg[i]) > 1e-8 {
			t.Fatalf("mapping changed semantics at basis %d: %v vs %v", i, pOrig[i], agg[i])
		}
	}
}

func TestMapPreservesSemanticsOnGrid(t *testing.T) {
	p := &Platform{Name: "g", NumQubits: 9, Gates: nisqGates(1, 2, 15, 10), Topology: topology.Grid(3, 3)}
	rng := rand.New(rand.NewSource(4))
	c := circuit.RandomCircuit(9, 4, rng)
	mapPreservesSemantics(t, c, p, MapOptions{})
	mapPreservesSemantics(t, c, p, MapOptions{Lookahead: true})
	mapPreservesSemantics(t, c, p, MapOptions{Placement: GreedyPlacement})
}

func TestMapRejectsThreeQubitGates(t *testing.T) {
	p := &Platform{Name: "lin", NumQubits: 3, Gates: nisqGates(1, 2, 15, 10), Topology: topology.Linear(3)}
	c := circuit.New("t", 3).Toffoli(0, 1, 2)
	if _, err := MapCircuit(c, p, MapOptions{}); err == nil {
		t.Error("3-qubit gate accepted by mapper")
	}
}

func TestMapRejectsTooManyQubits(t *testing.T) {
	p := &Platform{Name: "small", NumQubits: 2, Gates: nisqGates(1, 2, 15, 10), Topology: topology.Linear(2)}
	c := circuit.New("big", 3).H(2)
	if _, err := MapCircuit(c, p, MapOptions{}); err == nil {
		t.Error("oversized circuit accepted")
	}
}

func TestGreedyPlacementReducesSwaps(t *testing.T) {
	// A circuit whose hot pair (0,8) is distant under trivial placement
	// on a 3×3 grid.
	p := &Platform{Name: "g", NumQubits: 9, Gates: nisqGates(1, 2, 15, 10), Topology: topology.Grid(3, 3)}
	c := circuit.New("hot", 9)
	for i := 0; i < 10; i++ {
		c.Add("cz", []int{0, 8})
	}
	trivial, err := MapCircuit(c, p, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := MapCircuit(c, p, MapOptions{Placement: GreedyPlacement})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.AddedSwaps > trivial.AddedSwaps {
		t.Errorf("greedy placement worse: %d vs %d swaps", greedy.AddedSwaps, trivial.AddedSwaps)
	}
	if greedy.AddedSwaps != 0 {
		t.Errorf("hot pair should be adjacent after greedy placement, got %d swaps", greedy.AddedSwaps)
	}
}

func TestPlatformJSONRoundTrip(t *testing.T) {
	p := Superconducting()
	data, err := p.AsDevice().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadPlatform(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != p.Name || back.NumQubits != p.NumQubits {
		t.Error("round trip lost identity")
	}
	if back.Topology.NumEdges() != p.Topology.NumEdges() {
		t.Errorf("topology edges %d != %d", back.Topology.NumEdges(), p.Topology.NumEdges())
	}
}

func TestLoadPlatformKinds(t *testing.T) {
	cases := []string{
		`{"name":"a","qubits":4,"topology":{"kind":"linear"}}`,
		`{"name":"b","qubits":4,"topology":{"kind":"ring"}}`,
		`{"name":"c","qubits":6,"topology":{"kind":"grid","rows":2,"cols":3}}`,
		`{"name":"d","qubits":4,"topology":{"kind":"full"}}`,
		`{"name":"e","qubits":4,"topology":{"kind":"star"}}`,
		`{"name":"f","qubits":17,"topology":{"kind":"surface17"}}`,
		`{"name":"g","qubits":32,"topology":{"kind":"chimera","rows":2,"cols":2,"k":4}}`,
		`{"name":"h","qubits":3,"topology":{"kind":"custom","edges":[[0,1],[1,2]]}}`,
	}
	for _, src := range cases {
		if _, err := LoadPlatform([]byte(src)); err != nil {
			t.Errorf("LoadPlatform(%s): %v", src, err)
		}
	}
	bad := []string{
		`{"name":"x","qubits":4,"topology":{"kind":"grid","rows":3,"cols":3}}`,
		`{"name":"x","qubits":4,"topology":{"kind":"nope"}}`,
		`{"name":"x","qubits":0}`,
		`not json`,
	}
	for _, src := range bad {
		if _, err := LoadPlatform([]byte(src)); err == nil {
			t.Errorf("LoadPlatform accepted %s", src)
		}
	}
}

func TestPlatformPresets(t *testing.T) {
	for _, p := range []*Platform{Superconducting(), Semiconducting(), Perfect(5)} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	sc := Superconducting()
	if !sc.Supports("cz") || sc.Supports("toffoli") {
		t.Error("superconducting primitive set wrong")
	}
	if sc.Duration("measure") != 15 {
		t.Errorf("measure duration = %d", sc.Duration("measure"))
	}
	if sc.Duration("unknown-gate") != 1 {
		t.Error("default duration should be 1")
	}
}

func TestConditionalGateScheduleDependsOnMeasure(t *testing.T) {
	p := nisqPlatform(3)
	c := circuit.New("ff", 3)
	c.AddGate(circuit.Gate{Name: circuit.OpMeasure, Qubits: []int{0}}) // 15 cycles
	c.AddGate(circuit.Gate{Name: "x90", Qubits: []int{2}, HasCond: true, CondBit: 0})
	sched, err := ScheduleCircuit(c, p, ASAP)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range sched.Gates {
		if sg.Gate.Name == "x90" && sg.Cycle < 15 {
			t.Errorf("conditional gate at cycle %d, before its measurement completes", sg.Cycle)
		}
	}
}

func TestConditionalDecomposePropagates(t *testing.T) {
	p := nisqPlatform(2)
	c := circuit.New("cond", 2)
	c.AddGate(circuit.Gate{Name: "h", Qubits: []int{1}, HasCond: true, CondBit: 0})
	dec, err := Decompose(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if dec.GateCount() == 0 {
		t.Fatal("nothing decomposed")
	}
	for _, g := range dec.Gates {
		if !g.HasCond || g.CondBit != 0 {
			t.Errorf("condition lost on %v", g)
		}
	}
}

func TestOptimizeKeepsConditionalPairs(t *testing.T) {
	c := circuit.New("ff", 1)
	c.AddGate(circuit.Gate{Name: "x", Qubits: []int{0}, HasCond: true, CondBit: 0})
	c.AddGate(circuit.Gate{Name: "x", Qubits: []int{0}, HasCond: true, CondBit: 0})
	// Two conditional X gates would cancel only when the condition holds;
	// the optimiser must not assume that.
	if got := Optimize(c).GateCount(); got != 2 {
		t.Errorf("conditional pair collapsed to %d gates", got)
	}
}

func TestMapRemapsConditionBit(t *testing.T) {
	p := &Platform{Name: "lin", NumQubits: 3, Gates: nisqGates(1, 2, 15, 10), Topology: topology.Linear(3)}
	c := circuit.New("ff", 3)
	c.Add("cz", []int{0, 2}) // forces a swap, relocating a qubit
	c.Measure(0)
	c.AddGate(circuit.Gate{Name: "x", Qubits: []int{1}, HasCond: true, CondBit: 0})
	res, err := MapCircuit(c, p, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var measPhys, condPhys = -1, -1
	for _, g := range res.Circuit.Gates {
		switch {
		case g.Name == circuit.OpMeasure:
			measPhys = g.Qubits[0]
		case g.HasCond:
			condPhys = g.CondBit
		}
	}
	if measPhys == -1 || condPhys != measPhys {
		t.Errorf("condition bit %d does not follow measurement qubit %d", condPhys, measPhys)
	}
}
