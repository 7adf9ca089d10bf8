package qx

import (
	"runtime"

	"repro/internal/circuit"
	"repro/internal/quantum"
)

// optimizedEngine is the fast dense engine. It compiles each circuit once
// per run into a table of typed ops with every gate matrix precomputed —
// noisy multi-shot runs never call Gate.Matrix() inside the shot loop —
// and lowers the common gate set to specialized bit-twiddling kernels
// (X/Y/diagonal/CNOT/CZ/CPhase/SWAP and controlled single-qubit gates)
// instead of generic dense matrix multiplies. States it executes on have
// chunk-parallel kernel application enabled.
//
// Perfect measured runs walk the outcome tree the stabilizer engine
// shares (runTree), each node holding a state vector charged its
// amplitudes, so each measurement-outcome history is simulated once. A
// circuit with no measurement samples the executed state through the
// cumulative-distribution binary-search sampler instead. Noisy runs
// replay the whole circuit per shot on one reset state, since noise
// draws come between the measurements.
//
// Every substitution is probability-preserving at the bit level, and a
// shot through the tree makes the same draws in the same order as the
// reference engine, against P(1) values computed on bit-identical
// states. So the engine produces seeded counts identical to the
// reference engine — the differential tests in engine_test.go enforce
// this.
type optimizedEngine struct{}

// Name returns "optimized".
func (optimizedEngine) Name() string { return EngineOptimized }

// RunState executes the circuit once and returns the final state vector.
func (optimizedEngine) RunState(c *circuit.Circuit, env *ExecEnv) (*quantum.State, error) {
	prog, err := compileDense(c, env.Fusion && !env.noisy())
	if err != nil {
		return nil, err
	}
	r := newDenseRun(prog, env)
	r.run(0, len(prog.ops), make([]uint64, 1))
	return r.st, nil
}

// Run executes the circuit for the given number of shots. Perfect
// measured runs walk the outcome tree; perfect runs without a
// measurement execute once and sample; noisy runs replay every shot.
func (optimizedEngine) Run(c *circuit.Circuit, shots int, env *ExecEnv) (*Result, error) {
	noisy := env.noisy()
	prog, err := compileDense(c, env.Fusion && !noisy)
	if err != nil {
		return nil, err
	}
	res := &Result{NumQubits: c.NumQubits, Shots: shots, Counts: map[int]int{}}
	r := newDenseRun(prog, env)
	bits := make([]uint64, 1)

	if !noisy {
		if prog.hasMeasure {
			runTree(res, shots, env, prog.draws, r)
			return res, nil
		}
		// No bit is ever read out: the circuit (prep_z draws included)
		// runs once, then O(log dim) sampling per shot. The readout-error
		// pass is statically a no-op here.
		r.run(0, len(prog.ops), bits)
		sampler := newCumSampler(r.st)
		for i := 0; i < shots; i++ {
			res.Counts[sampler.sample(env.Rng)]++
		}
		return res, nil
	}

	// Noisy path: every shot replays the whole circuit from |0…0>.
	for i := 0; i < shots; i++ {
		r.st.Reset()
		bits[0] = 0
		res.GateErrorsInjected += r.run(0, len(prog.ops), bits)
		if prog.hasMeasure {
			// Readout error was already applied per measurement gate;
			// unmeasured qubits are never read out, so no register-wide
			// flip pass here.
			res.Counts[int(bits[0])]++
			continue
		}
		res.Counts[applyEnvReadoutError(env, r.st.MeasureAll(env.Rng), c.NumQubits)]++
	}
	return res, nil
}

// denseRun is a state vector under one compiled program and ExecEnv: the
// optimized engine's treeState.
type denseRun struct {
	p   *denseProgram
	env *ExecEnv
	st  *quantum.State
}

// newDenseRun returns a run of p on a fresh zero state, its kernel
// parallelism from the environment's worker budget (machine-sized by
// default).
func newDenseRun(p *denseProgram, env *ExecEnv) *denseRun {
	st := quantum.NewState(p.numQubits)
	if env.KernelWorkers == 0 {
		st.AutoParallelism()
	} else {
		st.SetParallelism(env.KernelWorkers)
	}
	return &denseRun{p: p, env: env, st: st}
}

func (r *denseRun) clone() *denseRun       { return &denseRun{p: r.p, env: r.env, st: r.st.Clone()} }
func (r *denseRun) copyFrom(src *denseRun) { r.st.CopyFrom(src.st) }
func (r *denseRun) prob(q int) float64     { return r.st.ProbOne(q) }
func (r *denseRun) project(q, b int)       { r.st.ProjectQubit(q, b) }
func (r *denseRun) flip(q int)             { r.st.ApplyX(q) }
func (r *denseRun) cost() int              { return r.st.Dim() }

// denseKind discriminates the optimized engine's unitary kernels.
type denseKind uint8

const (
	kGeneric    denseKind = iota // precomputed matrix via State.Apply
	kIdentity                    // identity gate: state untouched, noise still applies
	kDiag                        // single-qubit diagonal diag(d0, d1)
	kX                           // Pauli-X permutation
	kY                           // Pauli-Y
	kCNOT                        // controlled-NOT
	kCZ                          // controlled-Z
	kCPhase                      // controlled phase diag(1,1,1,d1)
	kSWAP                        // qubit exchange
	kControlled                  // controlled single-qubit matrix (crz, toffoli)
)

// denseGate is a unitary compiled for the optimized engine: the kernel
// and any precomputed matrix or diagonal entries. Fused single-qubit
// runs become ordinary kGeneric gates with the product matrix attached —
// the typed replacement for the old magic-gate-name + Params-index
// encoding.
type denseGate struct {
	kind   denseKind
	mat    quantum.Matrix // kGeneric, kControlled
	d0, d1 complex128     // kDiag, kCPhase
	fused  bool           // synthesized by fusion: exempt from per-gate noise
}

// denseProgram is a circuit compiled for the optimized engine.
type denseProgram = program[denseGate]

// compileDense lowers a validated circuit into the engine's op table,
// fusing single-qubit runs when fusion is on (perfect mode only — with
// noise each physical gate must see its own error channel).
func compileDense(c *circuit.Circuit, fusion bool) (*denseProgram, error) {
	if !fusion {
		return compile(c, lowerDense)
	}
	prog := &denseProgram{numQubits: c.NumQubits, ops: make([]progOp[denseGate], 0, len(c.Gates))}
	for _, eop := range fuseSingleQubitRuns(c.Gates) {
		if eop.fused != nil {
			prog.add(progOp[denseGate]{
				qubits: []int{eop.fusedQubit},
				gate:   denseGate{kind: kGeneric, mat: *eop.fused, fused: true},
			})
			continue
		}
		if err := prog.lower(eop.gate, lowerDense); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// lowerDense compiles one unitary, precomputing its matrix or diagonal
// entries from the same registry constructors the reference engine
// calls, so both engines apply bit-identical unitaries.
func lowerDense(g circuit.Gate) (denseGate, error) {
	var dg denseGate
	switch g.Name {
	case "i":
		dg.kind = kIdentity
	case "x":
		dg.kind = kX
	case "y":
		dg.kind = kY
	case "z", "s", "sdag", "t", "tdag", "rz", "phase":
		m, err := g.Matrix()
		if err != nil {
			return dg, err
		}
		dg.kind = kDiag
		dg.d0, dg.d1 = m.Data[0], m.Data[3]
	case "cnot":
		dg.kind = kCNOT
	case "cz":
		dg.kind = kCZ
	case "swap":
		dg.kind = kSWAP
	case "cphase":
		m, err := g.Matrix()
		if err != nil {
			return dg, err
		}
		dg.kind = kCPhase
		dg.d1 = m.Data[15]
	case "crz":
		// Controlled(RZ(θ)) applied as a controlled 2×2 kernel; the inner
		// matrix comes from the same constructor the registry embeds.
		dg.kind = kControlled
		dg.mat = quantum.RZ(g.Params[0])
	case "toffoli":
		dg.kind = kControlled
		dg.mat = quantum.X
	default:
		m, err := g.Matrix()
		if err != nil {
			return dg, err
		}
		dg.kind = kGeneric
		dg.mat = m
	}
	return dg, nil
}

// run executes ops [from, to) on the state, recording measured bits
// into the mask bits — bit q is qubit q's latest measurement, the basis
// index the reference engine counts — and returns the number of injected
// errors. It mirrors the reference engine's walk exactly — same gate
// order, same PRNG consumption points — differing only in how each
// unitary reaches the amplitudes.
func (r *denseRun) run(from, to int, bits []uint64) int {
	st, env := r.st, r.env
	injected := 0
	noisy := env.noisy()
	for i := from; i < to; i++ {
		op := &r.p.ops[i]
		switch op.kind {
		case opMeasure, opPrepZ:
			d := op.draw(i)
			collapse(r, d, quantum.DrawOutcome(env.Rng, st.ProbOne(d.q)), bits, env)
		case opWait:
			if noisy {
				applyEnvWait(env, st, r.p.numQubits, op.cycles)
			}
		case opNop:
		default:
			if op.hasCond && bitAt(bits, op.condBit) != 1 {
				continue
			}
			g := &op.gate
			switch g.kind {
			case kIdentity:
				// State untouched; noise below still applies.
			case kX:
				st.ApplyX(op.qubits[0])
			case kY:
				st.ApplyY(op.qubits[0])
			case kDiag:
				st.ApplyDiag(op.qubits[0], g.d0, g.d1)
			case kCNOT:
				st.ApplyCNOT(op.qubits[0], op.qubits[1])
			case kCZ:
				st.ApplyCZ(op.qubits[0], op.qubits[1])
			case kCPhase:
				st.ApplyCPhase(op.qubits[0], op.qubits[1], g.d1)
			case kSWAP:
				st.ApplySWAP(op.qubits[0], op.qubits[1])
			case kControlled:
				n := len(op.qubits)
				st.ApplyControlledOne(g.mat, op.qubits[n-1], op.qubits[:n-1]...)
			case kGeneric:
				st.Apply(g.mat, op.qubits...)
			}
			if noisy && !g.fused {
				injected += applyEnvGateNoise(env, st, op.qubits)
			}
		}
	}
	return injected
}

// shotWorkers returns the effective worker count for parallel shot
// batches: the machine's core count when workers <= 0, never more than
// the shot count.
func shotWorkers(workers, shots int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shots {
		workers = shots
	}
	return workers
}
