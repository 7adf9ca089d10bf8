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
// The engine walks gates in circuit order and consumes the ExecEnv PRNG
// at exactly the same points as the dense engines — one draw per
// measurement against P(1), the same noise-channel draw pattern, one
// draw per deterministic-path sample — so seeded counts agree
// bit-for-bit with reference/optimized wherever those can run at all.
// The differential tests in engine_stabilizer_test.go enforce this.
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
	if _, err := compileStab(c); err != nil {
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
	prog, err := compileStab(c)
	if err != nil {
		return nil, err
	}
	n := c.NumQubits
	res := &Result{NumQubits: n, Shots: shots, Counts: map[int]int{}}
	wide := n > 63
	if wide {
		res.WideCounts = map[string]int{}
	}
	noisy := env.noisy()

	// Deterministic fast path, mirroring the dense engines: one
	// execution, then one uniform draw per shot over the state's
	// computational-basis support.
	if !noisy && !prog.hasMeasure {
		t := newTableau(n)
		prog.execute(t, prog.ops, env, map[int]int{}, false)
		sampler := newSupportSampler(t)
		buf := make([]uint64, t.w)
		for i := 0; i < shots; i++ {
			sampler.sample(env.Rng, buf)
			res.countWords(buf)
		}
		return res, nil
	}

	// Perfect measured circuits: snapshot the tableau just before the
	// first PRNG-consuming operation and replay only the measurement
	// tail per shot. The prefix is pure Clifford (no draws), so running
	// it once is draw-for-draw identical to the dense engines' full
	// per-shot re-execution.
	if !noisy {
		base := newTableau(n)
		prog.execute(base, prog.ops[:prog.tailStart], env, map[int]int{}, false)
		tail := prog.ops[prog.tailStart:]
		for i := 0; i < shots; i++ {
			t := base.clone()
			bits := map[int]int{}
			prog.execute(t, tail, env, bits, false)
			res.countBits(bits)
		}
		return res, nil
	}

	// Noisy path: noise draws precede the first measurement, so every
	// shot replays the whole circuit on a fresh tableau.
	for i := 0; i < shots; i++ {
		t := newTableau(n)
		bits := map[int]int{}
		res.GateErrorsInjected += prog.execute(t, prog.ops, env, bits, true)
		if prog.hasMeasure {
			// Readout error was already applied per measurement gate.
			res.countBits(bits)
			continue
		}
		sampler := newSupportSampler(t)
		buf := make([]uint64, t.w)
		sampler.sample(env.Rng, buf)
		tabReadoutError(env, buf, n)
		res.countWords(buf)
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

// stabKind discriminates the stabilizer engine's op table.
type stabKind uint8

const (
	sUnitary    stabKind = iota // Clifford generator word
	sMeasure                    // projective measurement of qubits[0]
	sMeasureAll                 // measure every qubit
	sPrepZ                      // reset qubits[0] to |0>
	sWait                       // explicit idle (decoherence under noise)
	sNop                        // barrier, display
)

// stabOp is one compiled operation: for unitaries, the gate lowered to
// tableau generators by circuit.CliffordDecompose.
type stabOp struct {
	kind    stabKind
	gens    []circuit.CliffordGate
	qubits  []int
	hasCond bool
	condBit int
	cycles  float64
}

// stabProgram is a circuit compiled for the stabilizer engine.
type stabProgram struct {
	numQubits  int
	ops        []stabOp
	hasMeasure bool
	// tailStart indexes the first op that consumes PRNG on the perfect
	// path (measure, measure_all, prep_z); everything before it is the
	// shot-invariant prefix the snapshot optimisation runs once.
	tailStart int
}

// compileStab lowers a validated circuit into the tableau op table,
// failing on the first gate outside the Clifford group.
func compileStab(c *circuit.Circuit) (*stabProgram, error) {
	prog := &stabProgram{numQubits: c.NumQubits, ops: make([]stabOp, 0, len(c.Gates)), tailStart: -1}
	for _, g := range c.Gates {
		op := stabOp{qubits: g.Qubits, hasCond: g.HasCond, condBit: g.CondBit}
		switch g.Name {
		case circuit.OpMeasure:
			op.kind = sMeasure
			prog.hasMeasure = true
		case circuit.OpMeasureAll:
			op.kind = sMeasureAll
			prog.hasMeasure = true
		case circuit.OpPrepZ:
			op.kind = sPrepZ
		case circuit.OpWait:
			op.kind = sWait
			if len(g.Params) > 0 {
				op.cycles = g.Params[0]
			}
		case circuit.OpBarrier, circuit.OpDisplay:
			op.kind = sNop
		default:
			gens, ok := circuit.CliffordDecompose(g)
			if !ok {
				return nil, fmt.Errorf("qx: stabilizer engine cannot execute non-Clifford gate %q; the default (auto) engine runs it on a dense engine", g.String())
			}
			op.kind = sUnitary
			op.gens = gens
		}
		if prog.tailStart < 0 && (op.kind == sMeasure || op.kind == sMeasureAll || op.kind == sPrepZ) {
			prog.tailStart = len(prog.ops)
		}
		prog.ops = append(prog.ops, op)
	}
	if prog.tailStart < 0 {
		prog.tailStart = len(prog.ops)
	}
	return prog, nil
}

// execute runs the given op span on t, mirroring the dense engines'
// walk: same gate order, same PRNG consumption points. It returns the
// number of injected Pauli errors.
func (p *stabProgram) execute(t *tableau, ops []stabOp, env *ExecEnv, bits map[int]int, noisy bool) int {
	injected := 0
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case sMeasure:
			q := op.qubits[0]
			b := t.measureQubit(q, env.Rng)
			if noisy {
				b = flipReadoutBit(env, b)
			}
			bits[q] = b
		case sMeasureAll:
			for q := 0; q < p.numQubits; q++ {
				b := t.measureQubit(q, env.Rng)
				if noisy {
					b = flipReadoutBit(env, b)
				}
				bits[q] = b
			}
		case sPrepZ:
			q := op.qubits[0]
			if t.measureQubit(q, env.Rng) == 1 {
				t.applyX(q)
			}
		case sWait:
			if noisy {
				tabWait(env, t, p.numQubits, op.cycles)
			}
		case sNop:
		default:
			if op.hasCond && bits[op.condBit] != 1 {
				continue
			}
			for _, gen := range op.gens {
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
