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
// Perfect runs simulate each measurement-outcome history once, not once
// per shot. Only measure and prep_z draw from the PRNG, so the ops
// between two draws are a deterministic function of the outcomes drawn
// so far. The run keeps an outcome tree: a node holds the state just
// before a history's next draw, that draw's P(1) and the bits measured
// on the way; its two children are built lazily, the first time a shot
// draws that outcome. Every later shot that takes the same history only
// draws and compares at each node, then counts the leaf's bits. The
// memory the tree holds beyond its root stays below treeAmpCap amplitudes
// (4 MiB), each node charged its state plus treeNodeCost for its headers;
// a shot that reaches a child the cap keeps unbuilt replays the rest of
// the circuit on one scratch state. A circuit with no measurement samples the
// executed state through the cumulative-distribution binary-search
// sampler instead. Noisy runs replay the whole circuit per shot, since
// noise draws come between the measurements.
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
	st := newDenseState(c.NumQubits, env)
	bits := 0
	prog.executeOnce(st, prog.ops, env, &bits)
	return st, nil
}

// Run executes the circuit for the given number of shots. Perfect
// measured runs walk the outcome tree (runTree); perfect runs without a
// measurement execute once and sample; noisy runs replay every shot.
func (optimizedEngine) Run(c *circuit.Circuit, shots int, env *ExecEnv) (*Result, error) {
	noisy := env.noisy()
	prog, err := compileDense(c, env.Fusion && !noisy)
	if err != nil {
		return nil, err
	}
	res := &Result{NumQubits: c.NumQubits, Shots: shots, Counts: map[int]int{}}

	if !noisy {
		if prog.hasMeasure {
			prog.runTree(res, shots, env)
			return res, nil
		}
		// No bit is ever read out: the circuit (prep_z draws included)
		// runs once, then O(log dim) sampling per shot. The readout-error
		// pass is statically a no-op here.
		st := newDenseState(c.NumQubits, env)
		bits := 0
		prog.executeOnce(st, prog.ops, env, &bits)
		sampler := newCumSampler(st)
		for i := 0; i < shots; i++ {
			res.Counts[sampler.sample(env.Rng)]++
		}
		return res, nil
	}

	// Noisy path: every shot replays the whole circuit from |0…0>.
	st := newDenseState(c.NumQubits, env)
	for i := 0; i < shots; i++ {
		st.Reset()
		bits := 0
		res.GateErrorsInjected += prog.executeOnce(st, prog.ops, env, &bits)
		if prog.hasMeasure {
			// Readout error was already applied per measurement gate;
			// unmeasured qubits are never read out, so no register-wide
			// flip pass here.
			res.Counts[bits]++
			continue
		}
		res.Counts[applyEnvReadoutError(env, st.MeasureAll(env.Rng), c.NumQubits)]++
	}
	return res, nil
}

// treeAmpCap bounds what a perfect run's outcome tree holds beyond its
// root, in complex128 values: every node built is charged treeNodeCost,
// an inner node its state's amplitudes on top, and the total stays below
// 1<<18 (4 MiB). A node's own headers — the outcomeNode and the State —
// take well under treeNodeCost values (1 KiB), so the bound holds for the
// tree's whole footprint, and no run builds more than 4096 nodes. At 18
// or more qubits no inner node fits, so every shot replays the circuit
// from the root's first draw on.
const (
	treeAmpCap   = 1 << 18
	treeNodeCost = 64
)

// outcomeNode is one measurement-outcome history of a perfect run. An
// inner node holds the state just before the history's next draw, the
// index at of that draw op, its P(1) and the bits measured so far; a
// leaf, past the last draw, holds only the bits and at == len(ops).
// child[b] follows outcome b, nil until a shot first draws it.
type outcomeNode struct {
	st    *quantum.State
	at    int
	p1    float64
	bits  int
	child [2]*outcomeNode
}

// runTree is the perfect measured shot loop. The ops before the first
// draw run once into the root; each shot then walks from the root,
// drawing one outcome per node through quantum.DrawOutcome (the draw
// State.MeasureQubit makes) and building a missing child on first visit.
// Once the cap stops a child from being built, the shot copies its node
// into one scratch state, applies the outcome and replays the remaining
// ops with executeOnce. It returns the tree's root.
func (p *denseProgram) runTree(res *Result, shots int, env *ExecEnv) *outcomeNode {
	st := newDenseState(p.numQubits, env)
	bits := 0
	at := p.nextDraw(0)
	p.executeOnce(st, p.ops[:at], env, &bits)
	root := &outcomeNode{st: st, at: at, p1: st.ProbOne(p.ops[at].qubits[0])}
	cached := 0
	var scratch *quantum.State
shots:
	for i := 0; i < shots; i++ {
		n := root
		for n.at < len(p.ops) {
			b := quantum.DrawOutcome(env.Rng, n.p1)
			next := n.child[b]
			if next == nil {
				if next = p.grow(n, b, env, &cached); next == nil {
					if scratch == nil {
						scratch = newDenseState(p.numQubits, env)
					}
					scratch.CopyFrom(n.st)
					bits := p.collapse(scratch, &p.ops[n.at], b, n.bits, env)
					p.executeOnce(scratch, p.ops[n.at+1:], env, &bits)
					res.Counts[bits]++
					continue shots
				}
				n.child[b] = next
			}
			n = next
		}
		res.Counts[n.bits]++
	}
	return root
}

// grow builds the child of the inner node parent for outcome b: a leaf
// after the last draw, else a clone of the parent's state with the
// outcome applied and the draw-free ops up to the next draw executed. It
// returns nil when the node would take the tree's charge (treeAmpCap) to
// the cap.
func (p *denseProgram) grow(parent *outcomeNode, b int, env *ExecEnv, cached *int) *outcomeNode {
	op := &p.ops[parent.at]
	next := p.nextDraw(parent.at + 1)
	leaf := next == len(p.ops)
	cost := treeNodeCost
	if !leaf {
		cost += parent.st.Dim()
	}
	if *cached+cost >= treeAmpCap {
		return nil
	}
	*cached += cost
	if leaf {
		return &outcomeNode{at: next, bits: p.collapse(nil, op, b, parent.bits, env)}
	}
	st := parent.st.Clone()
	bits := p.collapse(st, op, b, parent.bits, env)
	p.executeOnce(st, p.ops[parent.at+1:next], env, &bits)
	return &outcomeNode{st: st, at: next, p1: st.ProbOne(p.ops[next].qubits[0]), bits: bits}
}

// nextDraw returns the index of the first op at or after from that draws
// from the PRNG on the perfect path — a measure or prep_z — or len(ops).
func (p *denseProgram) nextDraw(from int) int {
	for from < len(p.ops) && p.ops[from].kind != kMeasure && p.ops[from].kind != kPrepZ {
		from++
	}
	return from
}

// collapse is what outcome b of the draw op (a measure or prep_z) does:
// it projects st onto b, flips a prep_z's 1 back to |0>, and returns bits
// as the op leaves them — a measure sets its qubit's bit to b, after the
// readout flip on noisy runs; a prep_z records nothing. A nil st (an
// outcome-tree leaf, which keeps no state) updates only the bits.
func (p *denseProgram) collapse(st *quantum.State, op *denseOp, b, bits int, env *ExecEnv) int {
	q := op.qubits[0]
	if st != nil {
		st.ProjectQubit(q, b)
		if op.kind == kPrepZ && b == 1 {
			st.ApplyX(q)
		}
	}
	if op.kind != kMeasure {
		return bits
	}
	if env.noisy() {
		b = flipReadoutBit(env, b)
	}
	return withBit(bits, q, b)
}

// withBit returns the measured-bits mask with qubit q's bit set to b.
func withBit(bits, q, b int) int { return bits&^(1<<uint(q)) | b<<uint(q) }

// newDenseState returns a fresh zero state with kernel parallelism from
// the environment's worker budget (machine-sized by default).
func newDenseState(n int, env *ExecEnv) *quantum.State {
	st := quantum.NewState(n)
	if env.KernelWorkers == 0 {
		st.AutoParallelism()
	} else {
		st.SetParallelism(env.KernelWorkers)
	}
	return st
}

// denseKind discriminates the optimized engine's op table.
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
	kMeasure                     // projective measurement of qubits[0]
	kPrepZ                       // reset qubits[0] to |0>
	kWait                        // explicit idle (decoherence under noise)
	kNop                         // barrier, display
)

// denseOp is one compiled operation: the kind, its operands and any
// precomputed matrix or diagonal entries. Fused single-qubit runs become
// ordinary kGeneric ops with the product matrix attached — the typed
// replacement for the old magic-gate-name + Params-index encoding.
type denseOp struct {
	kind    denseKind
	qubits  []int
	mat     quantum.Matrix // kGeneric, kControlled
	d0, d1  complex128     // kDiag, kCPhase
	hasCond bool
	condBit int
	cycles  float64 // kWait
	fused   bool    // synthesized by fusion: exempt from per-gate noise
}

// denseProgram is a circuit compiled for the optimized engine.
type denseProgram struct {
	numQubits  int
	ops        []denseOp
	hasMeasure bool
}

// compileDense lowers a validated circuit into the engine's op table,
// fusing single-qubit runs when fusion is on (perfect mode only — with
// noise each physical gate must see its own error channel).
func compileDense(c *circuit.Circuit, fusion bool) (*denseProgram, error) {
	prog := &denseProgram{numQubits: c.NumQubits, ops: make([]denseOp, 0, len(c.Gates))}
	if fusion {
		for _, eop := range fuseSingleQubitRuns(c.Gates) {
			if eop.fused != nil {
				prog.ops = append(prog.ops, denseOp{
					kind:   kGeneric,
					qubits: []int{eop.fusedQubit},
					mat:    *eop.fused,
					fused:  true,
				})
				continue
			}
			if err := prog.lower(eop.gate); err != nil {
				return nil, err
			}
		}
	} else {
		for _, g := range c.Gates {
			if err := prog.lower(g); err != nil {
				return nil, err
			}
		}
	}
	return prog, nil
}

// lower appends the compiled form of one gate, precomputing its matrix or
// diagonal entries from the same registry constructors the reference
// engine calls, so both engines apply bit-identical unitaries. A
// measure_all becomes one measure per qubit in qubit order — the
// reference engine's measure_all loop.
func (p *denseProgram) lower(g circuit.Gate) error {
	op := denseOp{qubits: g.Qubits, hasCond: g.HasCond, condBit: g.CondBit}
	switch g.Name {
	case circuit.OpMeasureAll:
		qubits := make([]int, p.numQubits)
		for q := range qubits {
			qubits[q] = q
			p.ops = append(p.ops, denseOp{kind: kMeasure, qubits: qubits[q : q+1]})
			p.hasMeasure = true
		}
		return nil
	case circuit.OpMeasure:
		op.kind = kMeasure
		p.hasMeasure = true
	case circuit.OpPrepZ:
		op.kind = kPrepZ
	case circuit.OpWait:
		op.kind = kWait
		if len(g.Params) > 0 {
			op.cycles = g.Params[0]
		}
	case circuit.OpBarrier, circuit.OpDisplay:
		op.kind = kNop
	case "i":
		op.kind = kIdentity
	case "x":
		op.kind = kX
	case "y":
		op.kind = kY
	case "z", "s", "sdag", "t", "tdag", "rz", "phase":
		m, err := g.Matrix()
		if err != nil {
			return err
		}
		op.kind = kDiag
		op.d0, op.d1 = m.Data[0], m.Data[3]
	case "cnot":
		op.kind = kCNOT
	case "cz":
		op.kind = kCZ
	case "swap":
		op.kind = kSWAP
	case "cphase":
		m, err := g.Matrix()
		if err != nil {
			return err
		}
		op.kind = kCPhase
		op.d1 = m.Data[15]
	case "crz":
		// Controlled(RZ(θ)) applied as a controlled 2×2 kernel; the inner
		// matrix comes from the same constructor the registry embeds.
		op.kind = kControlled
		op.mat = quantum.RZ(g.Params[0])
	case "toffoli":
		op.kind = kControlled
		op.mat = quantum.X
	default:
		m, err := g.Matrix()
		if err != nil {
			return err
		}
		op.kind = kGeneric
		op.mat = m
	}
	p.ops = append(p.ops, op)
	return nil
}

// executeOnce runs the given op span on st, recording measured bits into
// the mask bits — bit q is qubit q's latest measurement, the basis index
// the reference engine counts — and returns the number of injected
// errors. It mirrors the reference engine's walk exactly — same gate
// order, same PRNG consumption points — differing only in how each
// unitary reaches the amplitudes.
func (p *denseProgram) executeOnce(st *quantum.State, ops []denseOp, env *ExecEnv, bits *int) int {
	injected := 0
	noisy := env.noisy()
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case kMeasure, kPrepZ:
			b := quantum.DrawOutcome(env.Rng, st.ProbOne(op.qubits[0]))
			*bits = p.collapse(st, op, b, *bits, env)
		case kWait:
			if noisy {
				applyEnvWait(env, st, p.numQubits, op.cycles)
			}
		case kNop:
		default:
			if op.hasCond && *bits>>uint(op.condBit)&1 != 1 {
				continue
			}
			switch op.kind {
			case kIdentity:
				// State untouched; noise below still applies.
			case kX:
				st.ApplyX(op.qubits[0])
			case kY:
				st.ApplyY(op.qubits[0])
			case kDiag:
				st.ApplyDiag(op.qubits[0], op.d0, op.d1)
			case kCNOT:
				st.ApplyCNOT(op.qubits[0], op.qubits[1])
			case kCZ:
				st.ApplyCZ(op.qubits[0], op.qubits[1])
			case kCPhase:
				st.ApplyCPhase(op.qubits[0], op.qubits[1], op.d1)
			case kSWAP:
				st.ApplySWAP(op.qubits[0], op.qubits[1])
			case kControlled:
				n := len(op.qubits)
				st.ApplyControlledOne(op.mat, op.qubits[n-1], op.qubits[:n-1]...)
			case kGeneric:
				st.Apply(op.mat, op.qubits...)
			}
			if noisy && !op.fused {
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
