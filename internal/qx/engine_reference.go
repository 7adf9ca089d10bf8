package qx

import (
	"repro/internal/circuit"
	"repro/internal/quantum"
)

// referenceEngine is the naive dense engine: every unitary gate
// materialises its matrix via Gate.Matrix() and is applied through the
// generic quantum.State paths, and sampling walks the distribution
// linearly. It preserves the original single-engine Simulator behaviour —
// with one deliberate semantic fix: the old Run applied readout error a
// second time over the whole register after explicit measure gates had
// already flipped their bits, so noisy measured circuits now draw fewer
// PRNG values per shot and seeded counts for those circuits differ from
// the pre-engine code. It serves as the baseline the optimized engine is
// differentially tested against.
type referenceEngine struct{}

// Name returns "reference".
func (referenceEngine) Name() string { return EngineReference }

// RunState executes the circuit once and returns the final state vector.
func (referenceEngine) RunState(c *circuit.Circuit, env *ExecEnv) (*quantum.State, error) {
	st := quantum.NewState(c.NumQubits)
	if _, _, err := refExecuteOnce(c, st, env); err != nil {
		return nil, err
	}
	return st, nil
}

// Run executes the circuit for the given number of shots.
func (referenceEngine) Run(c *circuit.Circuit, shots int, env *ExecEnv) (*Result, error) {
	res := &Result{NumQubits: c.NumQubits, Shots: shots, Counts: map[int]int{}}
	hasMeasure := circuitMeasures(c)
	noisy := env.noisy()

	// Perfect, measurement-free circuits are deterministic: execute the
	// unitary part once and sample the final distribution per shot. No
	// noise means no readout error, so no per-shot readout pass either.
	if !noisy && !hasMeasure {
		st := quantum.NewState(c.NumQubits)
		if _, _, err := refExecuteOnce(c, st, env); err != nil {
			return nil, err
		}
		for i := 0; i < shots; i++ {
			res.Counts[st.SampleIndex(env.Rng)]++
		}
		return res, nil
	}

	st := quantum.NewState(c.NumQubits)
	for i := 0; i < shots; i++ {
		st.Reset()
		bits, errs, err := refExecuteOnce(c, st, env)
		if err != nil {
			return nil, err
		}
		res.GateErrorsInjected += errs
		idx := 0
		if hasMeasure {
			// Readout error was already applied per measurement gate;
			// unmeasured qubits are never read out, so no register-wide
			// flip pass here.
			//qlint:nondeterministic-ok order-independent: ORs disjoint bits into an index; any visit order builds the same mask
			for q, b := range bits {
				if b == 1 {
					idx |= 1 << uint(q)
				}
			}
		} else {
			idx = st.MeasureAll(env.Rng)
			if noisy {
				idx = applyEnvReadoutError(env, idx, c.NumQubits)
			}
		}
		res.Counts[idx]++
	}
	return res, nil
}

// refExecuteOnce runs all gates on st, returning measured bits per qubit
// (latest measurement wins) and the number of injected errors.
func refExecuteOnce(c *circuit.Circuit, st *quantum.State, env *ExecEnv) (map[int]int, int, error) {
	bits := map[int]int{}
	injected := 0
	noisy := env.noisy()
	if env.Fusion && !noisy {
		for _, op := range fuseSingleQubitRuns(c.Gates) {
			if op.fused != nil {
				st.ApplyOne(*op.fused, op.fusedQubit)
				continue
			}
			if err := refApplyGate(op.gate, c, st, env, bits, &injected); err != nil {
				return nil, injected, err
			}
		}
		return bits, injected, nil
	}
	for _, g := range c.Gates {
		if err := refApplyGate(g, c, st, env, bits, &injected); err != nil {
			return nil, injected, err
		}
	}
	return bits, injected, nil
}

// refApplyGate executes one gate, including measurement, feed-forward and
// noise insertion.
func refApplyGate(g circuit.Gate, c *circuit.Circuit, st *quantum.State, env *ExecEnv, bits map[int]int, injected *int) error {
	noisy := env.noisy()
	switch g.Name {
	case circuit.OpMeasure:
		q := g.Qubits[0]
		b := st.MeasureQubit(q, env.Rng)
		if noisy {
			b = flipReadoutBit(env, b)
		}
		bits[q] = b
	case circuit.OpMeasureAll:
		for q := 0; q < c.NumQubits; q++ {
			b := st.MeasureQubit(q, env.Rng)
			if noisy {
				b = flipReadoutBit(env, b)
			}
			bits[q] = b
		}
	case circuit.OpPrepZ:
		q := g.Qubits[0]
		if st.MeasureQubit(q, env.Rng) == 1 {
			st.ApplyOne(quantum.X, q)
		}
	case circuit.OpBarrier, circuit.OpWait, circuit.OpDisplay:
		// No quantum effect; decoherence during explicit waits.
		if noisy && g.Name == circuit.OpWait && len(g.Params) > 0 {
			applyEnvWait(env, st, c.NumQubits, int(g.Params[0]))
		}
	default:
		// Classically-controlled gates (feed-forward) fire only when the
		// referenced measurement bit is 1.
		if g.HasCond && bits[g.CondBit] != 1 {
			return nil
		}
		m, err := g.Matrix()
		if err != nil {
			return err
		}
		st.Apply(m, g.Qubits...)
		if noisy {
			*injected += applyEnvGateNoise(env, st, g.Qubits)
		}
	}
	return nil
}

// execOp is the unit the reference engine executes after gate fusion: a
// plain circuit gate, or a fused single-qubit unitary synthesized by the
// engine. Fused matrices live here as typed values rather than being
// smuggled through circuit.Gate.Params as table indices.
type execOp struct {
	gate       circuit.Gate
	fused      *quantum.Matrix // non-nil marks a synthesized fused unitary
	fusedQubit int             // target of the fused unitary
}

// fuseSingleQubitRuns merges consecutive single-qubit unitaries acting on
// the same qubit into one matrix. This is the gate-fusion optimisation
// benchmarked in the ablation suite; both engines build their fused ops
// through it so the products are bit-identical.
func fuseSingleQubitRuns(gates []circuit.Gate) []execOp {
	out := make([]execOp, 0, len(gates))
	i := 0
	for i < len(gates) {
		g := gates[i]
		if !g.IsUnitary() || len(g.Qubits) != 1 || g.HasCond {
			out = append(out, execOp{gate: g})
			i++
			continue
		}
		// Collect the run of single-qubit gates on this qubit.
		q := g.Qubits[0]
		m, _ := g.Matrix()
		j := i + 1
		for j < len(gates) {
			nx := gates[j]
			if !nx.IsUnitary() || len(nx.Qubits) != 1 || nx.Qubits[0] != q || nx.HasCond {
				break
			}
			nm, _ := nx.Matrix()
			m = nm.Mul(m)
			j++
		}
		if j == i+1 {
			out = append(out, execOp{gate: g})
		} else {
			fused := m
			out = append(out, execOp{fused: &fused, fusedQubit: q})
		}
		i = j
	}
	return out
}
