package qx

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/quantum"
)

// stabilizerEngine executes Clifford(+measurement) circuits on an
// Aaronson–Gottesman tableau (tableau.go): polynomial in qubit count
// instead of exponential, which is what lets surface-code QEC, RB and
// GHZ workloads run at 100+ qubits. It accepts exactly the circuits
// circuit.IsClifford accepts — H/S/S†/X/Y/Z/CNOT/CZ/SWAP plus rotations
// at Clifford angles — with measurement, prep_z, feed-forward
// conditionals and Pauli-channel noise (depolarizing, dephasing,
// readout); amplitude-damping noise is rejected up front.
//
// Perfect measured runs walk the outcome tree the optimized engine
// shares (runTree), each node holding a tableau charged its rows, so a
// history of deterministic syndrome draws is simulated once per run, not
// once per shot. The engine walks gates in circuit order and consumes
// the ExecEnv PRNG at exactly the same points as the dense engines — one
// draw per measurement against P(1), the same noise-channel draw
// pattern, one draw per deterministic-path sample — so seeded counts
// agree bit-for-bit with reference/optimized wherever those can run at
// all. The differential tests in engine_stabilizer_test.go enforce this.
type stabilizerEngine struct{}

// Name returns "stabilizer".
func (stabilizerEngine) Name() string { return EngineStabilizer }

// maxStabStateQubits caps RunState: returning a state vector is
// inherently dense (2^n amplitudes), so the stabilizer engine delegates
// to the optimized engine below the cap and refuses above it.
const maxStabStateQubits = 24

// RunState validates the circuit against the Clifford contract, then
// delegates the state-vector materialisation to the optimized engine —
// a tableau has no amplitudes to return. Above maxStabStateQubits the
// call fails: use Run, which samples without ever building the vector.
func (stabilizerEngine) RunState(c *circuit.Circuit, env *ExecEnv) (*quantum.State, error) {
	if err := stabNoiseCompatible(env.Noise); err != nil {
		return nil, err
	}
	if _, err := compile(c, lowerClifford); err != nil {
		return nil, err
	}
	if c.NumQubits > maxStabStateQubits {
		return nil, fmt.Errorf("qx: stabilizer engine cannot materialise a %d-qubit state vector (RunState caps at %d qubits); use Run for sampled counts", c.NumQubits, maxStabStateQubits)
	}
	return optimizedEngine{}.RunState(c, env)
}

// Run executes the circuit for the given number of shots on the tableau.
func (stabilizerEngine) Run(c *circuit.Circuit, shots int, env *ExecEnv) (*Result, error) {
	if err := stabNoiseCompatible(env.Noise); err != nil {
		return nil, err
	}
	prog, err := compile(c, lowerClifford)
	if err != nil {
		return nil, err
	}
	n := c.NumQubits
	res := &Result{NumQubits: n, Shots: shots, Counts: map[int]int{}}
	if n > 63 {
		res.WideCounts = map[string]int{}
	}
	r := &stabRun{tableau: newTableau(n), p: prog, env: env}
	bits := make([]uint64, r.w)
	noisy := env.noisy()

	if !noisy && prog.hasMeasure {
		runTree(res, shots, env, prog.draws, r)
		return res, nil
	}

	// Deterministic fast path, mirroring the dense engines: one
	// execution, then one uniform draw per shot over the state's
	// computational-basis support.
	if !noisy {
		r.run(0, len(prog.ops), bits)
		sampler := newSupportSampler(r.tableau)
		for i := 0; i < shots; i++ {
			sampler.sample(env.Rng, bits)
			res.countWords(bits, 1)
		}
		return res, nil
	}

	// Noisy path: noise draws precede the first measurement, so every
	// shot replays the whole circuit on one tableau reset to |0…0>; an
	// unmeasured circuit rebuilds one sampler per shot in place.
	zero := newTableau(n)
	var sampler supportSampler
	for i := 0; i < shots; i++ {
		r.tableau.copyFrom(zero)
		clear(bits)
		res.GateErrorsInjected += r.run(0, len(prog.ops), bits)
		if !prog.hasMeasure {
			sampler.rebuild(r.tableau)
			sampler.sample(env.Rng, bits)
			tabReadoutError(env, bits, n)
		}
		// Readout error on measured circuits was already applied per
		// measurement gate.
		res.countWords(bits, 1)
	}
	return res, nil
}

// stabNoiseCompatible rejects noise models whose trajectories leave the
// stabilizer formalism.
func stabNoiseCompatible(nm *NoiseModel) error {
	if nm.CliffordCompatible() {
		return nil
	}
	return fmt.Errorf("qx: stabilizer engine cannot apply amplitude-damping (T1) noise — only Pauli channels (depolarizing, dephasing, readout error) stay Clifford; the default (auto) engine runs this noise model on a dense engine")
}

// stabProgram is a circuit compiled for the stabilizer engine: each
// unitary lowered to tableau generators by circuit.CliffordDecompose.
type stabProgram = program[[]circuit.CliffordGate]

// lowerClifford decomposes one unitary into tableau generators, failing
// on a gate outside the Clifford group.
func lowerClifford(g circuit.Gate) ([]circuit.CliffordGate, error) {
	gens, ok := circuit.CliffordDecompose(g)
	if !ok {
		return nil, fmt.Errorf("qx: stabilizer engine cannot execute non-Clifford gate %q; the default (auto) engine runs it on a dense engine", g.String())
	}
	return gens, nil
}

// stabRun is a tableau under one compiled program and ExecEnv: the
// stabilizer engine's treeState, whose prob and project are the
// tableau's own.
type stabRun struct {
	*tableau
	p   *stabProgram
	env *ExecEnv
}

func (r *stabRun) clone() *stabRun {
	return &stabRun{tableau: r.tableau.clone(), p: r.p, env: r.env}
}
func (r *stabRun) copyFrom(src *stabRun) { r.tableau.copyFrom(src.tableau) }
func (r *stabRun) flip(q int)            { r.applyX(q) }

// cost charges the tableau's X and Z row words as complex128 values
// (two uint64 words each) plus its sign bytes, so the tree's cap counts
// rows.
func (r *stabRun) cost() int { return len(r.x) + (len(r.r)+15)/16 }

// run executes ops [from, to) on the tableau, mirroring the dense
// engines' walk: same gate order, same PRNG consumption points. It
// returns the number of injected Pauli errors.
func (r *stabRun) run(from, to int, bits []uint64) int {
	t, env := r.tableau, r.env
	noisy := env.noisy()
	injected := 0
	for i := from; i < to; i++ {
		op := &r.p.ops[i]
		switch op.kind {
		case opMeasure, opPrepZ:
			d := op.draw(i)
			collapse(r, d, quantum.DrawOutcome(env.Rng, t.prob(d.q)), bits, env)
		case opWait:
			if noisy {
				tabWait(env, t, r.p.numQubits, op.cycles)
			}
		case opNop:
		default:
			if op.hasCond && bitAt(bits, op.condBit) != 1 {
				continue
			}
			for _, gen := range op.gate {
				t.applyGen(gen)
			}
			if noisy {
				injected += tabGateNoise(env, t, op.qubits)
			}
		}
	}
	return injected
}

// applyGen applies one Clifford generator to the tableau.
func (t *tableau) applyGen(g circuit.CliffordGate) {
	switch g.Kind {
	case circuit.CliffordH:
		t.applyH(g.Q0)
	case circuit.CliffordS:
		t.applyS(g.Q0)
	case circuit.CliffordSdag:
		t.applySdag(g.Q0)
	case circuit.CliffordX:
		t.applyX(g.Q0)
	case circuit.CliffordY:
		t.applyY(g.Q0)
	case circuit.CliffordZ:
		t.applyZ(g.Q0)
	case circuit.CliffordCNOT:
		t.applyCNOT(g.Q0, g.Q1)
	case circuit.CliffordCZ:
		t.applyCZ(g.Q0, g.Q1)
	case circuit.CliffordSWAP:
		t.applySWAP(g.Q0, g.Q1)
	}
}

// The tableau noise mirrors below consume the PRNG in exactly the order
// of their dense counterparts in noise.go/engine.go (applyPauliError,
// applyDephasing, applyEnvGateNoise, applyEnvWait, applyEnvReadoutError)
// so noisy seeded runs stay engine-independent.

// tabPauliError mirrors applyPauliError: one acceptance draw, then one
// Intn(3) Pauli pick matching quantum.RandomPauli's X/Y/Z order.
func tabPauliError(t *tableau, q int, p float64, rng *rand.Rand) bool {
	if p <= 0 || rng.Float64() >= p {
		return false
	}
	switch rng.Intn(3) {
	case 0:
		t.applyX(q)
	case 1:
		t.applyY(q)
	default:
		t.applyZ(q)
	}
	return true
}

// tabDecoherence mirrors applyEnvDecoherence. Amplitude damping is
// rejected before execution, so only the dephasing channel remains.
func tabDecoherence(env *ExecEnv, t *tableau, q int) {
	if lambda := env.Noise.dephasingLambda(); lambda > 0 {
		if env.Rng.Float64() < lambda {
			t.applyZ(q)
		}
	}
}

// tabGateNoise mirrors applyEnvGateNoise.
func tabGateNoise(env *ExecEnv, t *tableau, qubits []int) int {
	p := env.Noise.DepolarizingProb
	if len(qubits) >= 2 {
		p = env.Noise.TwoQubitDepolarizingProb
	}
	injected := 0
	for _, q := range qubits {
		if tabPauliError(t, q, p, env.Rng) {
			injected++
		}
		tabDecoherence(env, t, q)
	}
	return injected
}

// tabWait mirrors applyEnvWait.
func tabWait(env *ExecEnv, t *tableau, numQubits int, cycles float64) {
	for q := 0; q < numQubits; q++ {
		for k := 0.0; k < cycles; k++ {
			tabDecoherence(env, t, q)
		}
	}
}

// tabReadoutError mirrors applyEnvReadoutError on a packed outcome word
// slice (the wide-register counterpart of the int-index version).
func tabReadoutError(env *ExecEnv, words []uint64, n int) {
	if env.Noise.ReadoutError == 0 {
		return
	}
	for q := 0; q < n; q++ {
		if env.Rng.Float64() < env.Noise.ReadoutError {
			words[q>>6] ^= 1 << (uint(q) & 63)
		}
	}
}
