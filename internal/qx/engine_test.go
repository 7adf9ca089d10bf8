package qx

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/quantum"
)

// richRandomCircuit draws from the full gate set — every specialized
// kernel of the optimized engine plus generic, controlled and three-qubit
// gates — so the differential tests cover each lowering path. withMeasure
// adds mid-circuit measurement, feed-forward and prep.
func richRandomCircuit(n, depth int, rng *rand.Rand, withMeasure bool) *circuit.Circuit {
	c := circuit.New("rich", n)
	q := func() int { return rng.Intn(n) }
	pair := func() (int, int) {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		return a, b
	}
	measured := -1
	for d := 0; d < depth; d++ {
		for k := 0; k < n; k++ {
			switch rng.Intn(16) {
			case 0:
				c.X(q())
			case 1:
				c.Y(q())
			case 2:
				c.Z(q())
			case 3:
				c.H(q())
			case 4:
				c.S(q())
			case 5:
				c.T(q())
			case 6:
				c.RZ(q(), rng.Float64()*2*math.Pi)
			case 7:
				c.RX(q(), rng.Float64()*2*math.Pi)
			case 8:
				c.Add("phase", []int{q()}, rng.Float64())
			case 9:
				a, b := pair()
				c.CNOT(a, b)
			case 10:
				a, b := pair()
				c.CZ(a, b)
			case 11:
				a, b := pair()
				c.CPhase(a, b, rng.Float64())
			case 12:
				a, b := pair()
				c.SWAP(a, b)
			case 13:
				a, b := pair()
				c.Add("crz", []int{a, b}, rng.Float64())
			case 14:
				if n >= 3 {
					a := rng.Perm(n)
					c.Toffoli(a[0], a[1], a[2])
				}
			case 15:
				c.I(q())
			}
		}
		if withMeasure && rng.Intn(3) == 0 {
			m := q()
			c.Measure(m)
			measured = m
		}
		if withMeasure && measured >= 0 && rng.Intn(3) == 0 {
			// Feed-forward: conditional X on the last measured bit.
			c.AddGate(circuit.Gate{Name: "x", Qubits: []int{q()}, HasCond: true, CondBit: measured})
		}
		if withMeasure && rng.Intn(5) == 0 {
			c.PrepZ(q())
		}
	}
	return c
}

func TestEngineRegistry(t *testing.T) {
	if got := Reference().Name(); got != EngineReference {
		t.Errorf("Reference().Name() = %q", got)
	}
	if got := Optimized().Name(); got != EngineOptimized {
		t.Errorf("Optimized().Name() = %q", got)
	}
	if got := Stabilizer().Name(); got != EngineStabilizer {
		t.Errorf("Stabilizer().Name() = %q", got)
	}
	if New(1).Engine != nil {
		t.Error("New pins an engine; a nil Engine dispatches per circuit")
	}
}

// The tentpole contract: on randomized perfect circuits the optimized
// engine produces bit-identical seeded counts and (up to float noise)
// the same final state as the reference engine.
func TestEnginesAgreeOnPerfectCircuits(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := richRandomCircuit(4, 5, rng, false)

		sa, err := NewWithEngine(seed+100, Reference()).RunState(c)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := NewWithEngine(seed+100, Optimized()).RunState(c)
		if err != nil {
			t.Fatal(err)
		}
		if f := sa.Fidelity(sb); math.Abs(f-1) > 1e-9 {
			t.Fatalf("seed %d: state fidelity %v", seed, f)
		}

		ra, err := NewWithEngine(seed+100, Reference()).Run(c, 300)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := NewWithEngine(seed+100, Optimized()).Run(c, 300)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra.Counts, rb.Counts) {
			t.Fatalf("seed %d: counts diverge:\nreference %v\noptimized %v", seed, ra.Counts, rb.Counts)
		}
	}
}

// Same contract on circuits with mid-circuit measurement, feed-forward
// and resets.
func TestEnginesAgreeWithMeasurement(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 50))
		c := richRandomCircuit(4, 4, rng, true)
		ra, err := NewWithEngine(seed, Reference()).Run(c, 200)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := NewWithEngine(seed, Optimized()).Run(c, 200)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra.Counts, rb.Counts) {
			t.Fatalf("seed %d: counts diverge:\nreference %v\noptimized %v", seed, ra.Counts, rb.Counts)
		}
	}
	for _, tc := range tailEdgeCircuits() {
		for _, seed := range []int64{42, 123, 456} {
			ref := NewWithEngine(seed, Reference())
			ref.EnableFusion = tc.fusion
			ra, err := ref.Run(tc.c, tc.shots)
			if err != nil {
				t.Fatal(err)
			}
			assertRunMatches(t, tc, seed, Optimized(), ra)
		}
	}
}

// tailEdgeCase is a circuit that puts the measured shot path at an
// edge: the first PRNG-consuming op at index 0, a terminal measure_all,
// ops after the first measurement, a fused prefix, mid-circuit
// measurements that conditionals read, more outcome histories than the
// optimized engine's outcome tree may cache.
type tailEdgeCase struct {
	name     string
	c        *circuit.Circuit
	shots    int  // 200 unless set
	fusion   bool // run with EnableFusion
	clifford bool // the stabilizer engine accepts it
}

func tailEdgeCircuits() []tailEdgeCase {
	allH := circuit.New("wide-all-h", 12)
	for q := 0; q < 12; q++ {
		allH.H(q)
	}
	for q := 0; q < 12; q++ {
		allH.Measure(q)
	}
	cases := []tailEdgeCase{
		{name: "measure-first", clifford: true,
			c: circuit.New("measure-first", 3).Measure(0).H(0).CNOT(0, 1).H(2).Measure(0).Measure(1).Measure(2)},
		{name: "prep-first", clifford: true,
			c: circuit.New("prep-first", 3).PrepZ(1).H(0).CNOT(0, 1).H(2).Measure(0).Measure(1).Measure(2)},
		{name: "terminal-measure-all", clifford: true,
			c: circuit.New("terminal-measure-all", 3).H(0).CNOT(0, 1).H(2).S(2).H(2).MeasureAll()},
		{name: "unitary-after-measure", clifford: true,
			c: circuit.New("unitary-after-measure", 3).H(0).Measure(0).H(0).CNOT(0, 1).H(2).Measure(0).Measure(1).Measure(2)},
		{name: "cond-after-terminal", clifford: true,
			c: circuit.New("cond-after-terminal", 3).H(0).H(1).Measure(0).Measure(1).
				AddGate(circuit.Gate{Name: "x", Qubits: []int{2}, HasCond: true, CondBit: 0}).
				AddGate(circuit.Gate{Name: "h", Qubits: []int{2}, HasCond: true, CondBit: 1}).
				Measure(2)},
		{name: "fused-prefix", fusion: true,
			c: circuit.New("fused-prefix", 3).RX(0, 0.7).RY(0, 1.1).T(0).H(1).RZ(1, 0.3).RX(1, 2.2).
				CNOT(0, 1).RY(2, 0.4).RX(2, 1.9).Measure(0).Measure(1).Measure(2)},
		{name: "stackbench-ansatz", c: basisAnsatz(6, rand.New(rand.NewSource(7)))},
		// The shape ASAP scheduling gives eQASM: a qubit no gate touches
		// is measured in the first bundle, ahead of the entangling body.
		{name: "idle-measure-first", clifford: true,
			c: circuit.New("idle-measure-first", 4).Measure(3).H(0).CNOT(0, 1).CNOT(1, 2).S(2).H(2).
				Measure(0).Measure(1).Measure(2).Measure(3)},
		{name: "early-measured-ansatz", c: measureFirst(0, basisAnsatz(6, rand.New(rand.NewSource(7))))},
		{name: "random-mid-measures", c: midMeasureCircuit(4, 10, rand.New(rand.NewSource(11)), false)},
		{name: "random-mid-measures-clifford", clifford: true,
			c: midMeasureCircuit(5, 10, rand.New(rand.NewSource(12)), true)},
		{name: "prep-superposed", clifford: true,
			c: circuit.New("prep-superposed", 3).H(0).CNOT(0, 1).H(2).PrepZ(0).H(0).CNOT(0, 2).
				Measure(0).Measure(1).Measure(2)},
		{name: "mid-measure-all", clifford: true,
			c: circuit.New("mid-measure-all", 3).H(0).CNOT(0, 1).H(2).MeasureAll().H(0).
				AddGate(circuit.Gate{Name: "x", Qubits: []int{1}, HasCond: true, CondBit: 2}).
				CNOT(0, 2).Measure(0).Measure(1).Measure(2)},
		// 12 qubits and 512 shots of uniform outcomes pass the outcome
		// tree's amplitude cap, so most shots take the replay fallback.
		{name: "wide-all-h", clifford: true, shots: 512, c: allH},
	}
	for i := range cases {
		if cases[i].shots == 0 {
			cases[i].shots = 200
		}
	}
	return cases
}

// measureFirst returns c with a measurement of qubit q, still idle,
// ahead of every gate.
func measureFirst(q int, c *circuit.Circuit) *circuit.Circuit {
	return circuit.New(c.Name, c.NumQubits).Measure(q).Append(c)
}

// midMeasureCircuit interleaves random single- and two-qubit layers with
// measurements of random qubits, each layer followed by gates
// conditioned on a random already-measured bit. clifford keeps every
// gate in the Clifford group.
func midMeasureCircuit(n, depth int, rng *rand.Rand, clifford bool) *circuit.Circuit {
	c := circuit.New("mid-measures", n)
	var measured []int
	for d := 0; d < depth; d++ {
		for q := 0; q < n; q++ {
			switch rng.Intn(3) {
			case 0:
				c.H(q)
			case 1:
				if clifford {
					c.S(q)
				} else {
					c.RY(q, rng.Float64()*math.Pi)
				}
			}
		}
		p := rng.Perm(n)
		c.CNOT(p[0], p[1])
		m := rng.Intn(n)
		c.Measure(m)
		measured = append(measured, m)
		bit := measured[rng.Intn(len(measured))]
		c.AddGate(circuit.Gate{Name: "x", Qubits: []int{rng.Intn(n)}, HasCond: true, CondBit: bit})
		c.AddGate(circuit.Gate{Name: "h", Qubits: []int{rng.Intn(n)}, HasCond: true, CondBit: bit})
	}
	for q := 0; q < n; q++ {
		c.Measure(q)
	}
	return c
}

// basisAnsatz has the shape of the stackbench sessions program: h·rz(kπ)·h
// on every qubit (X^k up to phase), a 2n-step cnot ladder, n/2 random
// phases and a terminal measure per qubit. Its outcome is one basis
// state, so the counts map holds a single key whatever the shot count.
func basisAnsatz(n int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New("ansatz", n)
	for q := 0; q < n; q++ {
		c.H(q).RZ(q, float64(rng.Intn(4))*math.Pi).H(q)
	}
	for i := 0; i < 2*n; i++ {
		p := rng.Perm(n)
		c.CNOT(p[0], p[1])
	}
	for j := 0; j < n/2; j++ {
		c.RZ(rng.Intn(n), rng.Float64()*2*math.Pi)
	}
	for q := 0; q < n; q++ {
		c.Measure(q)
	}
	return c
}

// assertRunMatches runs tc on eng at seed and requires counts identical
// to want, both from Run and from a one-worker RunParallel.
func assertRunMatches(t *testing.T, tc tailEdgeCase, seed int64, eng Engine, want *Result) {
	t.Helper()
	sim := NewWithEngine(seed, eng)
	sim.EnableFusion = tc.fusion
	got, err := sim.Run(tc.c, want.Shots)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Counts, got.Counts) {
		t.Fatalf("%s seed %d: counts diverge:\nwant         %v\n%-12s %v", tc.name, seed, want.Counts, eng.Name(), got.Counts)
	}
	par := NewWithEngine(seed, eng)
	par.EnableFusion = tc.fusion
	one, err := par.RunParallel(tc.c, want.Shots, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, one.Counts) {
		t.Fatalf("%s seed %d: %s RunParallel(workers=1) %v differs from Run %v", tc.name, seed, eng.Name(), one.Counts, got.Counts)
	}
}

// The perfect measured shot loop allocates only while it builds the
// outcome tree both engines share, and the stabilizer's noisy loop
// resets one tableau and one bit mask, so a run allocates the same
// whatever its shot count. Each circuit has one or two outcome
// histories, so neither the tree nor the counts map grows with shots:
// dephasing on a computational-basis state changes no measured bit.
func TestMeasuredShotsAllocsIndependentOfShots(t *testing.T) {
	ghz := circuit.GHZ(5).X(1).X(3)
	for q := 0; q < 5; q++ {
		ghz.Measure(q)
	}
	wide := circuit.GHZ(66)
	for q := 0; q < 66; q++ {
		wide.Measure(q)
	}
	basis := circuit.New("basis", 3).X(0).CNOT(0, 1).H(2).H(2).Measure(0).Measure(1).Measure(2)
	dephasing := &NoiseModel{T2: 20_000, GateTimeNs: 20}
	cases := []struct {
		name  string
		eng   Engine
		c     *circuit.Circuit
		noise *NoiseModel
	}{
		{"optimized/ansatz", Optimized(), basisAnsatz(6, rand.New(rand.NewSource(3))), nil},
		{"optimized/idle-measure-first", Optimized(), measureFirst(0, basisAnsatz(6, rand.New(rand.NewSource(3)))), nil},
		{"optimized/masked-ghz", Optimized(), ghz, nil},
		{"stabilizer/masked-ghz", Stabilizer(), ghz, nil},
		{"stabilizer/wide-measured-ghz", Stabilizer(), wide, nil},
		{"stabilizer/noisy-dephasing", Stabilizer(), basis, dephasing},
		// Unmeasured, so every noisy shot samples a rebuilt support;
		// dephasing keeps the outcomes to the GHZ pair.
		{"stabilizer/noisy-unmeasured-ghz", Stabilizer(), circuit.GHZ(16), dephasing},
	}
	for _, tc := range cases {
		allocs := func(shots int) float64 {
			sim := NewNoisyWithEngine(1, tc.noise, tc.eng)
			return testing.AllocsPerRun(20, func() {
				if _, err := sim.Run(tc.c, shots); err != nil {
					t.Fatal(err)
				}
			})
		}
		if few, many := allocs(64), allocs(1024); few != many {
			t.Errorf("%s: %.1f allocs at 64 shots, %.1f at 1024: the shot loop allocates", tc.name, few, many)
		}
		if tc.noise == nil {
			continue
		}
		// The noisy rows' seeded counts stay the reference's.
		got, err := NewNoisyWithEngine(1, tc.noise, tc.eng).Run(tc.c, 64)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewNoisyWithEngine(1, tc.noise, Reference()).Run(tc.c, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Errorf("%s: counts %v, reference %v", tc.name, got.Counts, want.Counts)
		}
	}
}

// The outcome tree charges every node a fixed header cost on top of its
// state, so a circuit with many mid-circuit measurements — far more
// distinct histories than shots — stops at treeAmpCap/treeNodeCost
// nodes and replays the rest per shot, instead of caching a node per
// history step. A tableau node is charged its rows: on a 70-qubit
// register the tree's footprint, measured here from the tableaux it
// holds, stays under treeAmpCap. Counts stay the reference's.
func TestOutcomeTreeNodeBound(t *testing.T) {
	const shots = 2048
	coinFlips := func(n int) *circuit.Circuit {
		c := circuit.New("coin-flips", n)
		for i := 0; i < 40; i++ {
			c.H(0).Measure(0)
		}
		return c
	}
	cases := []struct {
		name       string
		c          *circuit.Circuit
		stabilizer bool
	}{
		{"optimized/coin-flips", coinFlips(1), false},
		{"stabilizer/coin-flips", coinFlips(1), true},
		{"stabilizer/wide-coin-flips", coinFlips(70), true},
	}
	for _, tc := range cases {
		res, nodes, footprint := treeRun(t, tc.c, shots, tc.stabilizer)
		t.Logf("%s: %d nodes, %d complex128 values", tc.name, nodes, footprint)
		if limit := treeAmpCap / treeNodeCost; nodes >= limit {
			t.Errorf("%s: the tree holds %d nodes beyond its root, want fewer than %d", tc.name, nodes, limit)
		}
		if footprint >= treeAmpCap {
			t.Errorf("%s: the tree's %d nodes take %d complex128 values, want fewer than %d", tc.name, nodes, footprint, treeAmpCap)
		}
		if res.WideCounts == nil {
			assertReferenceCounts(t, tc.name, tc.c, res)
			continue
		}
		total, rest := 0, strings.Repeat("0", tc.c.NumQubits-1)
		for bits, n := range res.WideCounts {
			if bits[:len(rest)] != rest {
				t.Errorf("%s: outcome %s sets a qubit other than 0", tc.name, bits)
			}
			total += n
		}
		if total != shots {
			t.Errorf("%s: %d shots counted, want %d", tc.name, total, shots)
		}
	}
}

// A forced draw — P(1) exactly 0 or 1 — does not branch the outcome
// tree. The measured 8-qubit GHZ makes one random draw and then seven
// forced ones, so its tree holds two leaves beyond the root; a circuit
// whose every draw is forced, resets included, is a root alone; a reset
// that draws at random branches once, and every later draw, a second
// reset included, is forced. Counts stay the reference's.
func TestOutcomeTreeSettlesForcedDraws(t *testing.T) {
	ghz := circuit.GHZ(8)
	for q := 0; q < 8; q++ {
		ghz.Measure(q)
	}
	basis := circuit.New("basis", 3).X(0).CNOT(0, 1).Measure(0).Measure(1).PrepZ(1).Measure(1).Measure(2)
	reset := circuit.New("reset-bell", 2).H(0).CNOT(0, 1).PrepZ(0).Measure(0).Measure(1).X(0).PrepZ(0).Measure(0)
	for _, tc := range []struct {
		name  string
		c     *circuit.Circuit
		nodes int
	}{{"ghz8", ghz, 2}, {"basis", basis, 0}, {"reset-bell", reset, 2}} {
		for _, stabilizer := range []bool{false, true} {
			res, nodes, _ := treeRun(t, tc.c, 256, stabilizer)
			if nodes != tc.nodes {
				t.Errorf("%s (stabilizer %v): the tree holds %d nodes beyond its root, want %d", tc.name, stabilizer, nodes, tc.nodes)
			}
			assertReferenceCounts(t, tc.name, tc.c, res)
		}
	}
}

// treeRun runs c's perfect measured shots through the outcome tree on
// the optimized or the stabilizer engine's state, seeded 1, and returns
// the result, the number of nodes the tree holds beyond its root and
// the memory they take in complex128 values: each node's header
// allowance and measured bits, plus its state — measured from the state
// itself, not through cost — unless it is a leaf, which holds none.
func treeRun(t *testing.T, c *circuit.Circuit, shots int, stabilizer bool) (res *Result, nodes, footprint int) {
	t.Helper()
	env := &ExecEnv{Rng: rand.New(rand.NewSource(1))}
	res = &Result{NumQubits: c.NumQubits, Shots: shots, Counts: map[int]int{}}
	if c.NumQubits > 63 {
		res.WideCounts = map[string]int{}
	}
	if stabilizer {
		p, err := compile(c, lowerClifford)
		if err != nil {
			t.Fatal(err)
		}
		root := runTree(res, shots, env, p.draws, &stabRun{tableau: newTableau(c.NumQubits), p: p, env: env})
		nodes, footprint = treeFootprint(root, func(r *stabRun) int {
			return (8*len(r.x) + 8*len(r.z) + len(r.r) + 15) / 16
		})
		return res, nodes, footprint
	}
	p, err := compileDense(c, false)
	if err != nil {
		t.Fatal(err)
	}
	root := runTree(res, shots, env, p.draws, newDenseRun(p, env))
	nodes, footprint = treeFootprint(root, func(r *denseRun) int { return r.st.Dim() })
	return res, nodes, footprint
}

func treeFootprint[S comparable](root *outcomeNode[S], size func(S) int) (nodes, footprint int) {
	var zero S
	var walk func(n *outcomeNode[S])
	walk = func(n *outcomeNode[S]) {
		for _, ch := range n.child {
			if ch == nil {
				continue
			}
			nodes++
			footprint += treeNodeCost + (len(ch.bits)+1)/2
			if ch.st != zero {
				footprint += size(ch.st)
			}
			walk(ch)
		}
	}
	walk(root)
	return nodes, footprint
}

// assertReferenceCounts requires res to hold the counts the reference
// engine reads for c at seed 1.
func assertReferenceCounts(t *testing.T, name string, c *circuit.Circuit, res *Result) {
	t.Helper()
	want, err := NewWithEngine(1, Reference()).Run(c, res.Shots)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Counts, want.Counts) {
		t.Errorf("%s: counts %v, reference %v", name, res.Counts, want.Counts)
	}
}

// And on noisy circuits: the per-shot trajectory path must consume the
// PRNG identically gate for gate.
func TestEnginesAgreeOnNoisyCircuits(t *testing.T) {
	models := []*NoiseModel{
		Depolarizing(0.02),
		Superconducting(),
		{T1: 5_000, T2: 3_000, GateTimeNs: 50, ReadoutError: 0.05},
	}
	for mi, noise := range models {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed + 500))
			c := richRandomCircuit(4, 4, rng, seed%2 == 0)
			ra, err := NewNoisyWithEngine(seed, noise, Reference()).Run(c, 120)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := NewNoisyWithEngine(seed, noise, Optimized()).Run(c, 120)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ra.Counts, rb.Counts) {
				t.Fatalf("model %d seed %d: counts diverge:\nreference %v\noptimized %v",
					mi, seed, ra.Counts, rb.Counts)
			}
			if ra.GateErrorsInjected != rb.GateErrorsInjected {
				t.Fatalf("model %d seed %d: injected errors %d vs %d",
					mi, seed, ra.GateErrorsInjected, rb.GateErrorsInjected)
			}
		}
	}
}

// Satellite: gate fusion on/off must not change results — identical
// seeded counts and fidelity 1 on randomized circuits, for both engines.
func TestFusionEquivalenceProperty(t *testing.T) {
	for _, eng := range []Engine{Reference(), Optimized()} {
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed + 900))
			c := circuit.RandomCircuit(4, 5, rng)

			plain := NewWithEngine(seed, eng)
			fused := NewWithEngine(seed, eng)
			fused.EnableFusion = true

			sa, err := plain.RunState(c)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := fused.RunState(c)
			if err != nil {
				t.Fatal(err)
			}
			if f := sa.Fidelity(sb); math.Abs(f-1) > 1e-9 {
				t.Fatalf("%s seed %d: fusion changed the state, fidelity %v", eng.Name(), seed, f)
			}

			ra, err := NewWithEngine(seed, eng).Run(c, 250)
			if err != nil {
				t.Fatal(err)
			}
			fsim := NewWithEngine(seed, eng)
			fsim.EnableFusion = true
			rb, err := fsim.Run(c, 250)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ra.Counts, rb.Counts) {
				t.Fatalf("%s seed %d: fusion changed seeded counts:\noff %v\non  %v",
					eng.Name(), seed, ra.Counts, rb.Counts)
			}
		}
	}
}

// The cumulative-distribution sampler must return the same index as the
// linear scan for every draw.
func TestCumSamplerMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	c := circuit.RandomCircuit(6, 4, rng)
	st, err := NewWithEngine(1, Reference()).RunState(c)
	if err != nil {
		t.Fatal(err)
	}
	sampler := newCumSampler(st)
	ra := rand.New(rand.NewSource(5))
	rb := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		want := st.SampleIndex(ra)
		got := sampler.sample(rb)
		if got != want {
			t.Fatalf("draw %d: sampler %d, linear scan %d", i, got, want)
		}
	}
}

func TestRunParallel(t *testing.T) {
	c := circuit.New("bell", 2).H(0).CNOT(0, 1).Measure(0).Measure(1)

	res, err := New(9).RunParallel(c, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for idx, n := range res.Counts {
		if idx != 0 && idx != 3 {
			t.Errorf("impossible Bell outcome %d", idx)
		}
		total += n
	}
	if total != 1000 || res.Shots != 1000 {
		t.Errorf("merged %d shots (Shots=%d), want 1000", total, res.Shots)
	}

	// Determinism: same seed and worker count → identical merged counts.
	again, err := New(9).RunParallel(c, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Counts, again.Counts) {
		t.Error("RunParallel is not deterministic for fixed (seed, workers)")
	}

	// Repeated calls on ONE simulator draw fresh batch seeds, so they are
	// independent samples, like repeated Run calls.
	sim := New(9)
	first, err := sim.RunParallel(c, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sim.RunParallel(c, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first.Counts, second.Counts) {
		t.Error("repeated RunParallel on one simulator returned identical batches")
	}

	// A single worker degenerates to the serial path.
	serial, err := New(9).Run(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	one, err := New(9).RunParallel(c, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Counts, one.Counts) {
		t.Error("RunParallel(workers=1) differs from serial Run")
	}

	if _, err := New(9).RunParallel(c, 0, 4); err == nil {
		t.Error("RunParallel accepted zero shots")
	}
}

// Readout error must hit each measured bit exactly once, and never touch
// qubits that were not read out.
func TestReadoutErrorAppliedOncePerMeasuredBit(t *testing.T) {
	const p = 0.2
	const shots = 6000
	c := circuit.New("ro1", 2).Measure(0) // qubit 1 is never measured
	for _, eng := range []Engine{Reference(), Optimized()} {
		sim := NewNoisyWithEngine(5, &NoiseModel{ReadoutError: p}, eng)
		res, err := sim.Run(c, shots)
		if err != nil {
			t.Fatal(err)
		}
		flipped, spurious := 0, 0
		for idx, n := range res.Counts {
			if idx&1 != 0 {
				flipped += n
			}
			if idx&2 != 0 {
				spurious += n
			}
		}
		if got := float64(flipped) / shots; math.Abs(got-p) > 0.02 {
			t.Errorf("%s: measured-bit flip rate %.3f, want ≈%.2f (double application?)", eng.Name(), got, p)
		}
		if spurious != 0 {
			t.Errorf("%s: unmeasured qubit flipped %d times", eng.Name(), spurious)
		}
	}
}

func TestRunParallelNoisy(t *testing.T) {
	c := circuit.GHZ(5)
	res, err := NewNoisy(3, Depolarizing(0.05)).RunParallel(c, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != 400 {
		t.Errorf("merged %d shots, want 400", total)
	}
	if res.GateErrorsInjected == 0 {
		t.Error("no injected errors merged from workers")
	}
}

// The optimized engine lowers rz to its diagonal without building the
// matrix; the entries must stay bit-equal to quantum.RZ's, signed zeros
// and extreme angles included.
func TestLowerDenseRZMatchesRZ(t *testing.T) {
	angles := []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi, math.Pi / 2, -math.Pi / 2,
		1e-300, -1e-300, 1e15, -1e15, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64}
	rng := rand.New(rand.NewSource(4))
	for len(angles) < 1000 {
		angles = append(angles, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(12))))
	}
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) && math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	for _, theta := range angles {
		dg, err := lowerDense(circuit.Gate{Name: "rz", Qubits: []int{0}, Params: []float64{theta}})
		if err != nil {
			t.Fatal(err)
		}
		m := quantum.RZ(theta)
		if dg.kind != kDiag || !same(dg.d0, m.Data[0]) || !same(dg.d1, m.Data[3]) {
			t.Fatalf("rz(%v): diag(%v, %v), RZ gives diag(%v, %v)", theta, dg.d0, dg.d1, m.Data[0], m.Data[3])
		}
	}
	// An unbound symbolic angle still fails as Gate.Matrix does.
	g := circuit.Gate{Name: "rz", Qubits: []int{0}, Params: []float64{0}, Exprs: []*circuit.ParamExpr{circuit.Sym("theta")}}
	_, want := g.Matrix()
	if _, err := lowerDense(g); err == nil || err.Error() != want.Error() {
		t.Errorf("symbolic rz: error %v, want %v", err, want)
	}
}
