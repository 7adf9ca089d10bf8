package qx

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
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
	if got := Auto().Name(); got != EngineAuto {
		t.Errorf("Auto().Name() = %q", got)
	}
	if New(1).engine().Name() != EngineAuto {
		t.Errorf("a nil Simulator.Engine runs %q, want auto", New(1).engine().Name())
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
