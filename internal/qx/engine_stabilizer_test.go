package qx

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
)

// cliffordRandomCircuit mirrors richRandomCircuit but draws only from
// the Clifford group — every generator the tableau implements plus
// every rotation-snapping path of the classifier — so the stabilizer
// engine can be differentially tested against the dense engines on the
// full surface it accepts. withMeasure adds mid-circuit measurement,
// feed-forward and prep.
func cliffordRandomCircuit(n, depth int, rng *rand.Rand, withMeasure bool) *circuit.Circuit {
	c := circuit.New("clifford", n)
	q := func() int { return rng.Intn(n) }
	pair := func() (int, int) {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		return a, b
	}
	quarter := func() float64 { return float64(rng.Intn(8)-4) * math.Pi / 2 }
	measured := -1
	for d := 0; d < depth; d++ {
		for k := 0; k < n; k++ {
			switch rng.Intn(18) {
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
				c.Sdag(q())
			case 6:
				c.Add([]string{"x90", "mx90", "y90", "my90"}[rng.Intn(4)], []int{q()})
			case 7:
				c.RX(q(), quarter())
			case 8:
				c.RY(q(), quarter())
			case 9:
				c.RZ(q(), quarter())
			case 10:
				c.Add("phase", []int{q()}, quarter())
			case 11:
				c.Add("u3", []int{q()}, quarter(), quarter(), quarter())
			case 12:
				a, b := pair()
				c.CNOT(a, b)
			case 13:
				a, b := pair()
				c.CZ(a, b)
			case 14:
				a, b := pair()
				c.SWAP(a, b)
			case 15:
				a, b := pair()
				c.Add([]string{"iswap", "iswapdag"}[rng.Intn(2)], []int{a, b})
			case 16:
				a, b := pair()
				if rng.Intn(2) == 0 {
					c.CPhase(a, b, float64(rng.Intn(2))*math.Pi)
				} else {
					c.Add("crz", []int{a, b}, float64(rng.Intn(4))*math.Pi)
				}
			case 17:
				c.I(q())
			}
		}
		if withMeasure && rng.Intn(3) == 0 {
			m := q()
			c.Measure(m)
			measured = m
		}
		if withMeasure && measured >= 0 && rng.Intn(3) == 0 {
			c.AddGate(circuit.Gate{Name: "x", Qubits: []int{q()}, HasCond: true, CondBit: measured})
		}
		if withMeasure && rng.Intn(5) == 0 {
			c.PrepZ(q())
		}
	}
	return c
}

// The tentpole contract: on randomized perfect Clifford circuits up to
// 12 qubits the stabilizer engine produces bit-identical seeded counts
// to both dense engines (the sampling path: one uniform draw per shot).
func TestStabilizerAgreesOnPerfectCliffordCircuits(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(seed)%10 // 3..12 qubits
		c := cliffordRandomCircuit(n, 5, rng, false)

		ra, err := NewWithEngine(seed+100, Reference()).Run(c, 400)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := NewWithEngine(seed+100, Optimized()).Run(c, 400)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := NewWithEngine(seed+100, Stabilizer()).Run(c, 400)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra.Counts, rs.Counts) {
			t.Fatalf("seed %d (n=%d): counts diverge:\nreference  %v\nstabilizer %v", seed, n, ra.Counts, rs.Counts)
		}
		if !reflect.DeepEqual(rb.Counts, rs.Counts) {
			t.Fatalf("seed %d (n=%d): counts diverge:\noptimized  %v\nstabilizer %v", seed, n, rb.Counts, rs.Counts)
		}
	}
}

// Same contract with mid-circuit measurement, feed-forward and resets —
// the outcome-tree path.
func TestStabilizerAgreesWithMeasurement(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 50))
		n := 3 + int(seed)%8
		c := cliffordRandomCircuit(n, 4, rng, true)
		ra, err := NewWithEngine(seed, Optimized()).Run(c, 200)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := NewWithEngine(seed, Stabilizer()).Run(c, 200)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra.Counts, rs.Counts) {
			t.Fatalf("seed %d (n=%d): counts diverge:\noptimized  %v\nstabilizer %v", seed, n, ra.Counts, rs.Counts)
		}
	}
	for _, tc := range tailEdgeCircuits() {
		if !tc.clifford {
			continue
		}
		for _, seed := range []int64{42, 123, 456} {
			ra, err := NewWithEngine(seed, Reference()).Run(tc.c, tc.shots)
			if err != nil {
				t.Fatal(err)
			}
			assertRunMatches(t, tc, seed, Stabilizer(), ra)
		}
	}
}

// And under Clifford-compatible noise: the stochastic Pauli-channel
// mirrors must consume the PRNG draw-for-draw like the dense channels.
func TestStabilizerAgreesOnNoisyCliffordCircuits(t *testing.T) {
	models := []*NoiseModel{
		Depolarizing(0.02),
		{T2: 3_000, GateTimeNs: 50, ReadoutError: 0.05}, // dephasing + readout, no T1
		{DepolarizingProb: 0.01, TwoQubitDepolarizingProb: 0.04, ReadoutError: 0.02},
	}
	for mi, noise := range models {
		if !noise.CliffordCompatible() {
			t.Fatalf("model %d unexpectedly Clifford-incompatible", mi)
		}
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed + 500))
			n := 3 + int(seed)%6
			c := cliffordRandomCircuit(n, 4, rng, seed%2 == 0)
			ra, err := NewNoisyWithEngine(seed, noise, Reference()).Run(c, 120)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := NewNoisyWithEngine(seed, noise, Stabilizer()).Run(c, 120)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ra.Counts, rs.Counts) {
				t.Fatalf("model %d seed %d (n=%d): counts diverge:\nreference  %v\nstabilizer %v",
					mi, seed, n, ra.Counts, rs.Counts)
			}
			if ra.GateErrorsInjected != rs.GateErrorsInjected {
				t.Fatalf("model %d seed %d: injected errors %d vs %d",
					mi, seed, ra.GateErrorsInjected, rs.GateErrorsInjected)
			}
		}
	}
}

// Auto dispatch, differentially proven: Clifford circuits route to the
// tableau and still match dense seeded counts; non-Clifford circuits
// route to dense with artefacts unchanged.
func TestAutoDispatch(t *testing.T) {
	auto := Auto().(Dispatcher)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 300))
		cliff := cliffordRandomCircuit(4+int(seed)%5, 4, rng, seed%2 == 0)
		if got := auto.Dispatch(cliff, nil).Name(); got != EngineStabilizer {
			t.Fatalf("seed %d: Clifford circuit dispatched to %q", seed, got)
		}
		ra, err := NewWithEngine(seed, Optimized()).Run(cliff, 200)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := NewWithEngine(seed, Auto()).Run(cliff, 200)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra.Counts, rs.Counts) {
			t.Fatalf("seed %d: auto(clifford) counts diverge from optimized:\n%v\n%v", seed, ra.Counts, rs.Counts)
		}

		dense := richRandomCircuit(4, 4, rng, seed%2 == 0)
		dense.T(0) // guarantee non-Clifford
		if got := auto.Dispatch(dense, nil).Name(); got != EngineOptimized {
			t.Fatalf("seed %d: non-Clifford circuit dispatched to %q", seed, got)
		}
		rd, err := NewWithEngine(seed, Optimized()).Run(dense, 150)
		if err != nil {
			t.Fatal(err)
		}
		rad, err := NewWithEngine(seed, Auto()).Run(dense, 150)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rd.Counts, rad.Counts) {
			t.Fatalf("seed %d: auto(non-clifford) differs from optimized:\n%v\n%v", seed, rd.Counts, rad.Counts)
		}
	}

	// Noise steers dispatch too: amplitude damping forces the dense path
	// even on Clifford circuits; Pauli channels keep the tableau.
	ghz := circuit.GHZ(4)
	if got := auto.Dispatch(ghz, Superconducting()).Name(); got != EngineOptimized {
		t.Errorf("T1 noise model dispatched to %q, want optimized", got)
	}
	if got := auto.Dispatch(ghz, Depolarizing(0.01)).Name(); got != EngineStabilizer {
		t.Errorf("depolarizing model dispatched to %q, want stabilizer", got)
	}
}

// The stabilizer engine must reject what it cannot simulate, loudly and
// at submit time: non-Clifford gates and non-Clifford noise.
func TestStabilizerRejections(t *testing.T) {
	tq := circuit.New("t", 2).H(0).T(0)
	if _, err := NewWithEngine(1, Stabilizer()).Run(tq, 10); err == nil || !strings.Contains(err.Error(), "non-Clifford") {
		t.Errorf("T-gate circuit: err = %v, want non-Clifford rejection", err)
	}
	if _, err := NewWithEngine(1, Stabilizer()).RunState(tq); err == nil {
		t.Error("RunState accepted a T-gate circuit")
	}
	ghz := circuit.GHZ(3)
	if _, err := NewNoisyWithEngine(1, Superconducting(), Stabilizer()).Run(ghz, 10); err == nil || !strings.Contains(err.Error(), "amplitude-damping") {
		t.Errorf("T1 noise: err = %v, want amplitude-damping rejection", err)
	}
}

// RunState delegates to the dense engine under the cap (state-vector
// semantics preserved for small Clifford circuits) and refuses beyond it.
func TestStabilizerRunState(t *testing.T) {
	c := circuit.GHZ(3)
	sa, err := NewWithEngine(7, Optimized()).RunState(c)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewWithEngine(7, Stabilizer()).RunState(c)
	if err != nil {
		t.Fatal(err)
	}
	if f := sa.Fidelity(sb); math.Abs(f-1) > 1e-9 {
		t.Errorf("RunState fidelity %v", f)
	}
	if _, err := NewWithEngine(7, Stabilizer()).RunState(circuit.GHZ(maxStabStateQubits + 1)); err == nil {
		t.Error("RunState accepted a register beyond the dense cap")
	}
}

// Acceptance: a 100-qubit GHZ sample (2048 shots) completes in well
// under a second and lands exclusively on the two legal outcomes,
// roughly balanced.
func TestStabilizer100QubitGHZ(t *testing.T) {
	const n, shots = 100, 2048
	start := time.Now()
	res, err := NewWithEngine(11, Stabilizer()).Run(circuit.GHZ(n), shots)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("100-qubit GHZ took %v, want < 1s", elapsed)
	}
	if res.WideCounts == nil {
		t.Fatal("expected WideCounts on a 100-qubit register")
	}
	zeros, ones := strings.Repeat("0", n), strings.Repeat("1", n)
	if got := res.Count(zeros) + res.Count(ones); got != shots {
		t.Fatalf("GHZ outcomes outside {0^n, 1^n}: %d of %d legal\n%s", got, shots, res.Histogram())
	}
	if res.Count(zeros) < shots/4 || res.Count(ones) < shots/4 {
		t.Errorf("GHZ outcomes badly unbalanced: %d / %d", res.Count(zeros), res.Count(ones))
	}
}

// Wide registers must survive the parallel shot-batch merge.
func TestStabilizerRunParallelWide(t *testing.T) {
	const n, shots = 70, 800
	sim := NewWithEngine(5, Stabilizer())
	res, err := sim.RunParallel(circuit.GHZ(n), shots, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for bits, cnt := range res.WideCounts {
		if bits != strings.Repeat("0", n) && bits != strings.Repeat("1", n) {
			t.Errorf("impossible GHZ outcome %s", bits)
		}
		total += cnt
	}
	if total != shots || res.Shots != shots {
		t.Errorf("merged %d shots (Shots=%d), want %d", total, res.Shots, shots)
	}
}

// The explicit-measurement path must also work on wide registers,
// including feed-forward.
func TestStabilizerWideMeasured(t *testing.T) {
	const n = 66
	c := circuit.GHZ(n)
	for q := 0; q < n; q++ {
		c.Measure(q)
	}
	res, err := NewWithEngine(3, Stabilizer()).Run(c, 300)
	if err != nil {
		t.Fatal(err)
	}
	zeros, ones := strings.Repeat("0", n), strings.Repeat("1", n)
	if got := res.Count(zeros) + res.Count(ones); got != 300 {
		t.Fatalf("measured GHZ outside legal outcomes: %d of 300", got)
	}
}
