package qx

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
)

func TestRunStateBell(t *testing.T) {
	sim := New(1)
	st, err := sim.RunState(circuit.Bell())
	if err != nil {
		t.Fatal(err)
	}
	p := st.Probabilities()
	if math.Abs(p[0]-0.5) > 1e-9 || math.Abs(p[3]-0.5) > 1e-9 {
		t.Errorf("Bell state probabilities %v", p)
	}
}

// A simulator with no pinned engine must return a state vector for a Clifford
// circuit wider than the tableau's state-vector cap: a state vector is
// dense whichever engine would sample the circuit, so RunState never
// routes through the stabilizer engine.
func TestDefaultRunStateBeyondStabilizerCap(t *testing.T) {
	n := maxStabStateQubits + 1
	st, err := New(1).RunState(circuit.GHZ(n))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / math.Sqrt2
	for _, idx := range []int{0, 1<<uint(n) - 1} {
		if a := st.Amplitude(idx); math.Abs(real(a)-want) > 1e-9 || math.Abs(imag(a)) > 1e-9 {
			t.Errorf("amplitude of |%b> = %v, want %v", idx, a, want)
		}
	}
}

func TestRunShotsBell(t *testing.T) {
	sim := New(2)
	res, err := sim.Run(circuit.Bell(), 4000)
	if err != nil {
		t.Fatal(err)
	}
	p00 := res.Probability(0)
	p11 := res.Probability(3)
	if math.Abs(p00-0.5) > 0.05 || math.Abs(p11-0.5) > 0.05 {
		t.Errorf("Bell sampling p00=%v p11=%v", p00, p11)
	}
	if res.Counts[1]+res.Counts[2] != 0 {
		t.Errorf("impossible Bell outcomes observed: %v", res.Counts)
	}
}

func TestRunWithExplicitMeasure(t *testing.T) {
	sim := New(3)
	c := circuit.New("m", 2).H(0).CNOT(0, 1).Measure(0).Measure(1)
	res, err := sim.Run(c, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for idx := range res.Counts {
		if idx != 0 && idx != 3 {
			t.Errorf("correlated measurement broken: outcome %d", idx)
		}
	}
}

func TestRunRejectsBadShots(t *testing.T) {
	sim := New(1)
	if _, err := sim.Run(circuit.Bell(), 0); err == nil {
		t.Error("shots=0 accepted")
	}
}

// TestRunRejectsZeroQubits: a circuit on no qubits has no state to
// simulate and no outcome to encode, so every engine refuses it with an
// error instead of panicking, on the perfect and the noisy path and for
// RunState.
func TestRunRejectsZeroQubits(t *testing.T) {
	empty := circuit.New("empty", 0)
	names := []string{"dispatch (nil)", EngineReference, EngineOptimized, EngineStabilizer}
	for i, e := range []Engine{nil, Reference(), Optimized(), Stabilizer()} {
		name := names[i]
		for _, noise := range []*NoiseModel{nil, Depolarizing(1e-3)} {
			sim := NewNoisyWithEngine(1, noise, e)
			if _, err := sim.Run(empty, 4); err == nil {
				t.Errorf("%s (noise %v): zero-qubit Run accepted", name, noise != nil)
			}
			if _, err := sim.RunParallel(empty, 4, 2); err == nil {
				t.Errorf("%s (noise %v): zero-qubit RunParallel accepted", name, noise != nil)
			}
			if _, err := sim.RunState(empty); err == nil {
				t.Errorf("%s (noise %v): zero-qubit RunState accepted", name, noise != nil)
			}
		}
	}
}

func TestPrepZ(t *testing.T) {
	sim := New(5)
	c := circuit.New("p", 1).X(0).PrepZ(0).Measure(0)
	res, err := sim.Run(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] != 100 {
		t.Errorf("prep_z did not reset: %v", res.Counts)
	}
}

func TestNoisyGHZDegrades(t *testing.T) {
	shots := 600
	perfect := New(7)
	ghz := circuit.GHZ(5)
	resP, err := perfect.Run(ghz, shots)
	if err != nil {
		t.Fatal(err)
	}
	if resP.Counts[0]+resP.Counts[31] != shots {
		t.Error("perfect GHZ should only yield all-0 or all-1")
	}
	noisy := NewNoisy(7, Depolarizing(0.05))
	resN, err := noisy.Run(ghz, shots)
	if err != nil {
		t.Fatal(err)
	}
	good := resN.Counts[0] + resN.Counts[31]
	if good == shots {
		t.Error("noisy GHZ produced zero errors at 5% depolarising")
	}
	if resN.GateErrorsInjected == 0 {
		t.Error("no gate errors recorded")
	}
	if float64(good)/float64(shots) < 0.3 {
		t.Errorf("noise too destructive: only %d/%d good", good, shots)
	}
}

func TestReadoutError(t *testing.T) {
	sim := NewNoisy(11, &NoiseModel{ReadoutError: 0.5})
	c := circuit.New("ro", 1) // identity circuit: ideal outcome always 0
	res, err := sim.Run(c, 2000)
	if err != nil {
		t.Fatal(err)
	}
	p1 := res.Probability(1)
	if math.Abs(p1-0.5) > 0.05 {
		t.Errorf("50%% readout error gives P(1)=%v", p1)
	}
}

func TestAmplitudeDampingRelaxesToGround(t *testing.T) {
	// Strong T1 relative to gate time: |1> should decay towards |0> over
	// many idle gates.
	noise := &NoiseModel{T1: 100, GateTimeNs: 100} // gamma ≈ 0.63 per gate
	sim := NewNoisy(13, noise)
	c := circuit.New("t1", 1).X(0)
	for i := 0; i < 10; i++ {
		c.I(0)
	}
	res, err := sim.Run(c, 500)
	if err != nil {
		t.Fatal(err)
	}
	if p0 := res.Probability(0); p0 < 0.9 {
		t.Errorf("after 10 decay steps P(0)=%v, want >0.9", p0)
	}
}

func TestDephasingDestroysCoherence(t *testing.T) {
	// H, heavy dephasing, H: without noise returns |0>; dephasing turns
	// the middle state into a mixture so the final distribution is ~50/50.
	noise := &NoiseModel{T2: 10, GateTimeNs: 1000}
	sim := NewNoisy(17, noise)
	c := circuit.New("t2", 1).H(0).I(0).H(0)
	res, err := sim.Run(c, 2000)
	if err != nil {
		t.Fatal(err)
	}
	p1 := res.Probability(1)
	if math.Abs(p1-0.5) > 0.06 {
		t.Errorf("dephased Ramsey P(1)=%v, want ≈0.5", p1)
	}
}

func TestFusionMatchesUnfused(t *testing.T) {
	c := circuit.New("f", 2)
	c.H(0).T(0).S(0).RZ(0, 0.3).H(1).CNOT(0, 1).X(1).Y(1)
	plain := New(21)
	fused := New(21)
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
		t.Errorf("fusion changed the state: fidelity %v", f)
	}
}

// Property: fusion never changes measurement distributions for random
// circuits.
func TestFusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		sim := New(seed)
		c := circuit.RandomCircuit(4, 4, sim.Rand())
		a, err := New(99).RunState(c)
		if err != nil {
			return false
		}
		fs := New(99)
		fs.EnableFusion = true
		b, err := fs.RunState(c)
		if err != nil {
			return false
		}
		return math.Abs(a.Fidelity(b)-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSampleExpectation(t *testing.T) {
	sim := New(31)
	// <Z0> on |+> is 0; encode Z0 as f(idx).
	c := circuit.New("e", 1).H(0)
	z0 := func(idx int) float64 {
		if idx&1 == 1 {
			return -1
		}
		return 1
	}
	v, err := sim.SampleExpectation(c, 4000, z0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v) > 0.06 {
		t.Errorf("<Z> on |+> = %v, want ≈0", v)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{NumQubits: 2, Shots: 10, Counts: map[int]int{0: 7, 3: 3}}
	top := r.Top(1)
	if len(top) != 1 || top[0].Index != 0 || top[0].Count != 7 {
		t.Errorf("Top wrong: %v", top)
	}
	if BitString(3, 4) != "0011" {
		t.Errorf("BitString = %q", BitString(3, 4))
	}
	if r.Histogram() == "" {
		t.Error("empty histogram")
	}
}

func TestDeterministicSeeding(t *testing.T) {
	c := circuit.New("d", 3).H(0).H(1).H(2)
	a, _ := New(5).Run(c, 100)
	b, _ := New(5).Run(c, 100)
	for idx, n := range a.Counts {
		if b.Counts[idx] != n {
			t.Fatal("same seed produced different results")
		}
	}
}

// TestReleasedPRNGReseedsExactly: a simulator built on a released PRNG
// draws exactly the stream of one built on a fresh source, so recycling
// never changes seeded counts, serial or in parallel batches.
func TestReleasedPRNGReseedsExactly(t *testing.T) {
	c := circuit.New("d", 4).H(0).H(1).RX(2, 0.4).CNOT(2, 3).H(3)
	fresh := &Simulator{rng: rand.New(rand.NewSource(9))}
	want, err := fresh.Run(c, 500)
	if err != nil {
		t.Fatal(err)
	}
	wantParallel, err := (&Simulator{rng: rand.New(rand.NewSource(9))}).RunParallel(c, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		// Leave a used PRNG behind so the next New reseeds a dirty one.
		used := New(int64(100 + i))
		used.Rand().Int63()
		used.Release()
		sim := New(9)
		got, err := sim.Run(c, 500)
		if err != nil {
			t.Fatal(err)
		}
		sim.Release()
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Fatalf("round %d: reseeded counts %v, fresh %v", i, got.Counts, want.Counts)
		}
		sim = New(9)
		got, err = sim.RunParallel(c, 500, 3)
		if err != nil {
			t.Fatal(err)
		}
		sim.Release()
		if !reflect.DeepEqual(got.Counts, wantParallel.Counts) {
			t.Fatalf("round %d: reseeded parallel counts %v, fresh %v", i, got.Counts, wantParallel.Counts)
		}
	}
}

func TestNoiseModelHelpers(t *testing.T) {
	var nilModel *NoiseModel
	if !nilModel.IsZero() {
		t.Error("nil model should be zero")
	}
	if Superconducting().IsZero() {
		t.Error("superconducting model should not be zero")
	}
	m := &NoiseModel{T1: 1000, GateTimeNs: 20}
	if g := m.ampDampingGamma(); g <= 0 || g >= 1 {
		t.Errorf("gamma = %v", g)
	}
	if l := (&NoiseModel{}).dephasingLambda(); l != 0 {
		t.Errorf("lambda without T2 = %v", l)
	}
}

// TestConcurrentShotExecution enforces the package's concurrency
// contract under -race: one Simulator per goroutine, input circuits
// shared read-only across all of them. Both the perfect fast path (with
// fusion, which exercises the per-simulator scratch table) and the noisy
// per-shot path are driven in parallel.
func TestConcurrentShotExecution(t *testing.T) {
	shared := circuit.New("shared", 3)
	shared.H(0).CNOT(0, 1).RX(2, 0.3).RZ(2, 0.7).CNOT(1, 2).MeasureAll()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sim *Simulator
			if g%2 == 0 {
				sim = New(int64(g))
				sim.EnableFusion = true
			} else {
				sim = NewNoisy(int64(g), Depolarizing(1e-3))
			}
			for iter := 0; iter < 20; iter++ {
				res, err := sim.Run(shared, 50)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				total := 0
				for _, c := range res.Counts {
					total += c
				}
				if total != 50 {
					t.Errorf("goroutine %d: %d shots aggregated, want 50", g, total)
					return
				}
			}
		}()
	}
	wg.Wait()
}
