package qx

import (
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/quantum"
)

// Engine is the pluggable execution layer beneath Simulator: it takes a
// validated circuit and turns it into sampled counts or a final state.
// The upper layers of the stack (core.Stack, microarch, qserv) target
// this interface rather than one concrete implementation, mirroring how
// the paper treats QX as the swappable layer under the micro-architecture.
//
// Engines are plain values: a Simulator with no Engine runs Auto, and
// callers that need one path pinned (differential tests, benchmarks)
// pass Reference(), Optimized() or Stabilizer() directly.
//
// Engines must be stateless (or internally synchronised): one Engine
// value is shared by every Simulator that selects it, across goroutines.
// All per-run mutable state — the PRNG above all — arrives through the
// ExecEnv and must stay local to the call.
type Engine interface {
	// Name returns the engine's name (one of the Engine* constants for
	// the shipped engines): the value of core.Report.Engine and of the
	// qserv engine-dispatch metric label.
	Name() string
	// RunState executes the circuit once from |0…0>, collapsing on
	// measurement, and returns the final state vector.
	RunState(c *circuit.Circuit, env *ExecEnv) (*quantum.State, error)
	// Run executes the circuit for the given number of shots and
	// aggregates measured outcomes, exactly as Simulator.Run documents.
	Run(c *circuit.Circuit, shots int, env *ExecEnv) (*Result, error)
}

// ExecEnv is the per-run execution environment a Simulator hands its
// engine: the simulator's PRNG, noise model and fusion flag. It is only
// valid for the duration of one engine call.
type ExecEnv struct {
	Rng    *rand.Rand
	Noise  *NoiseModel
	Fusion bool
	// KernelWorkers bounds the amplitude-kernel parallelism of states the
	// engine creates: 0 sizes it to the machine, 1 keeps kernels serial.
	// RunParallel sets 1 on its shot workers so shot-level and
	// amplitude-level parallelism never multiply into oversubscription.
	KernelWorkers int
}

func (e *ExecEnv) noisy() bool { return !e.Noise.IsZero() }

// Engine names, as returned by Engine.Name.
const (
	// EngineReference is the naive dense engine: generic matrix
	// application, per-gate matrix materialisation, linear-scan sampling.
	// It is the behavioural baseline every other engine is differentially
	// tested against.
	EngineReference = "reference"
	// EngineOptimized is the fast dense engine: specialized bit-twiddling
	// kernels, a precompiled per-circuit op/matrix table and
	// chunk-parallel amplitude application. Without noise it simulates
	// each measurement-outcome history once, in the outcome tree it shares
	// with the stabilizer engine, whose memory, node headers included,
	// stays under 4 MiB, so a later shot down the same history only draws
	// and compares; or it samples the state in O(log dim) when nothing is
	// measured. Seeded counts are identical to the reference engine: a
	// shot makes the same draws against the same P(1) values on
	// bit-identical states.
	EngineOptimized = "optimized"
	// EngineStabilizer is the Aaronson–Gottesman tableau engine for
	// Clifford(+measurement) circuits: polynomial in qubit count, so GHZ,
	// surface-code and RB workloads run at 100+ qubits. Without noise its
	// measured runs walk the same outcome tree, each node holding a
	// tableau charged its rows. Seeded counts are identical to the dense
	// engines on any circuit both can execute.
	EngineStabilizer = "stabilizer"
	// EngineAuto dispatches per circuit: the stabilizer tableau when the
	// circuit is Clifford and the noise model is Clifford-compatible, the
	// optimized dense engine otherwise. It is the engine a Simulator with
	// no Engine runs.
	EngineAuto = "auto"
)

// Reference returns the reference engine.
func Reference() Engine { return referenceEngine{} }

// Optimized returns the optimized dense engine.
func Optimized() Engine { return optimizedEngine{} }

// Stabilizer returns the Clifford tableau engine.
func Stabilizer() Engine { return stabilizerEngine{} }

// Auto returns the dispatching meta-engine.
func Auto() Engine { return autoEngine{} }

// Dispatcher is implemented by meta-engines (the auto engine) that pick
// a concrete engine per circuit. Callers that record or expose the
// engine actually executing a workload — core.Stack's report, the qserv
// span attributes and dispatch counter — resolve through this interface
// before running.
type Dispatcher interface {
	// Dispatch returns the engine that will execute the circuit under
	// the given noise model (nil means perfect execution).
	Dispatch(c *circuit.Circuit, noise *NoiseModel) Engine
}

// Noise helpers shared by every engine. They consume the ExecEnv PRNG in
// a fixed order, which is what keeps seeded counts identical across
// engines: any engine that walks gates in circuit order and calls these
// at the same points draws the same random sequence.

// applyEnvGateNoise inserts the error channels that follow a gate on the
// listed operand qubits in realistic mode, returning the number of
// discrete Pauli errors injected.
func applyEnvGateNoise(env *ExecEnv, st *quantum.State, qubits []int) int {
	p := env.Noise.DepolarizingProb
	if len(qubits) >= 2 {
		p = env.Noise.TwoQubitDepolarizingProb
	}
	injected := 0
	for _, q := range qubits {
		if applyPauliError(st, q, p, env.Rng) {
			injected++
		}
		applyEnvDecoherence(env, st, q)
	}
	return injected
}

func applyEnvDecoherence(env *ExecEnv, st *quantum.State, q int) {
	if gamma := env.Noise.ampDampingGamma(); gamma > 0 {
		applyAmplitudeDamping(st, q, gamma, env.Rng)
	}
	if lambda := env.Noise.dephasingLambda(); lambda > 0 {
		applyDephasing(st, q, lambda, env.Rng)
	}
}

// flipReadoutBit classically flips a measured bit with the model's
// readout-error probability.
func flipReadoutBit(env *ExecEnv, b int) int {
	if env.Noise.ReadoutError > 0 && env.Rng.Float64() < env.Noise.ReadoutError {
		return b ^ 1
	}
	return b
}

// applyEnvReadoutError flips each bit of a measured basis index with the
// readout-error probability. It must only be called on the noisy path
// (the deterministic perfect path hoists the no-noise check instead of
// paying a per-shot no-op call), and only for implicit end-of-shot
// MeasureAll outcomes — explicit measurement gates apply their readout
// flip at the gate via flipReadoutBit, and applying both would double the
// effective readout-error rate.
func applyEnvReadoutError(env *ExecEnv, idx, n int) int {
	if env.Noise.ReadoutError == 0 {
		return idx
	}
	for q := 0; q < n; q++ {
		if env.Rng.Float64() < env.Noise.ReadoutError {
			idx ^= 1 << uint(q)
		}
	}
	return idx
}

// applyEnvWait applies decoherence for an explicit wait of the given
// cycle count across every qubit.
func applyEnvWait(env *ExecEnv, st *quantum.State, numQubits int, cycles float64) {
	for q := 0; q < numQubits; q++ {
		for k := 0.0; k < cycles; k++ {
			applyEnvDecoherence(env, st, q)
		}
	}
}

func circuitMeasures(c *circuit.Circuit) bool {
	for _, g := range c.Gates {
		if g.Name == circuit.OpMeasure || g.Name == circuit.OpMeasureAll {
			return true
		}
	}
	return false
}
