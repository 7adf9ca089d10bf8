// Package qx implements the QX simulator layer of the stack: execution of
// gate circuits on perfect qubits (no decoherence, no gate errors) or
// realistic qubits (stochastic Pauli errors, amplitude/phase damping and
// readout errors via quantum-trajectory unravelling), as described in
// §2.7 of the paper.
//
// # Engine layer
//
// Execution is split from configuration: a Simulator holds the run
// configuration (noise model, fusion flag, PRNG) and delegates the actual
// work to an Engine — the execution layer the upper layers of the stack
// (core.Stack, the micro-architecture, qserv) target by interface rather
// than by implementation. Engines are plain values, not names: a nil
// Simulator.Engine (and a nil core.Stack.Engine) runs Auto, the one
// engine path of the stack, and only callers that need one path pinned
// — differential tests and benchmarks — pass a concrete engine. Three
// engines ship beneath the dispatcher:
//
//   - Reference: the naive dense engine — per-gate matrix
//     materialisation, generic matrix application, linear-scan sampling.
//     It is the behavioural baseline the differential tests compare
//     against.
//   - Optimized: compiles the circuit once per run into a typed op table
//     with precomputed matrices, lowers the common gate set to
//     specialized bit-twiddling kernels and applies amplitudes
//     chunk-parallel across goroutines on large states. Perfect
//     (noise-free) runs simulate each measurement-outcome history once,
//     not once per shot. Only measure and prep_z draw from the PRNG
//     (measure_all is lowered to one measure per qubit), so the ops
//     between two draws depend only on the outcomes drawn so far. The
//     run keeps an outcome tree: a node holds the state just before its
//     history's next draw, that draw's P(1) and the bits measured on
//     the way, and a child is built the first time a shot draws its
//     outcome — a clone of the parent, projected, run up to the next
//     draw. A later shot down the same history only draws and compares
//     at each node. The tree's memory beyond the root stays below 1<<18
//     complex128 values (4 MiB): each node is charged its amplitudes plus
//     64 values for its headers, so no run builds more than 4096 nodes.
//     A shot that reaches a child past the cap copies its node into one
//     scratch state and replays the rest of the circuit, so at 18 or
//     more qubits every shot replays from the first draw.
//     The counts are exact: each shot makes the reference engine's
//     draws in the same order, through the same quantum.DrawOutcome
//     comparison, against P(1) values computed on bit-identical states.
//     A circuit with no measurement samples its executed state through
//     a cumulative distribution with binary search. Noisy runs replay
//     every shot in full, because noise draws come between the
//     measurements.
//   - Stabilizer: an Aaronson–Gottesman CHP tableau —
//     n destabilizer and n stabilizer generators as packed X/Z bit rows
//     plus a sign — O(n) per Clifford gate and O(n²) per measurement,
//     so cost is polynomial in qubit count where dense engines double
//     per qubit. It executes only Clifford circuits (see below) and,
//     with noise, only tableau-compatible models: stochastic Pauli
//     channels — depolarizing, T2 dephasing, readout flips — are fine,
//     amplitude damping (T1) is rejected because a non-unital channel
//     has no stabilizer unravelling. Results for registers wider than
//     63 qubits land in Result.WideCounts, keyed by bitstring.
//   - Auto (the default): a Dispatcher that inspects each circuit at run
//     time and picks Stabilizer when circuit.IsClifford holds and the
//     noise model is CliffordCompatible, Optimized otherwise. RunState
//     always runs Optimized, since a state vector is dense whichever
//     engine would sample the circuit. Layers that want the
//     report/metrics to name the real execution path (core.Stack, qserv)
//     resolve the Dispatcher once before running.
//
// The Clifford classifier (circuit.CliffordDecompose / IsClifford)
// recognises the structural Clifford gates (h, s, sdag, x, y, z, the
// ±90° axis rotations, cnot, cz, swap, iswap) and any parameterised
// rotation — rx, ry, rz, phase, u3, cphase, crz — whose angles are
// exact multiples of π/2 (within CliffordAngleTol), decomposing each
// into generator words over {H, S, S†, X, Y, Z, CNOT, CZ, SWAP}.
// Measurement, measure_all, prep_z, feed-forward conditions, barriers
// and classical display ops are all tableau-executable and do not break
// Cliffordness; t, toffoli, fredkin and unbound symbolic angles do.
//
// All engines produce identical seeded counts on circuits they share:
// the stabilizer engine draws from the PRNG at exactly the points the
// dense walk does (one draw per measurement against p₁ ∈ {0, ½, 1}, the
// same noise-channel draws, and support sampling that enumerates the
// stabilizer state's support in the dense sampler's integer order), so
// the randomized differential tests in engine_test.go enforce
// bit-identical counts across all three engines on perfect, noisy and
// feed-forward Clifford circuits. Dispatch is therefore a pure
// performance decision, which is why no layer exposes an engine knob.
//
// To add an engine, implement Engine (execute a validated circuit,
// consuming randomness only from the ExecEnv PRNG) and pass the value
// where it is needed, or teach Auto to dispatch to it. An engine that
// walks gates in circuit order and draws from the PRNG at the same
// points as the reference engine keeps seeded counts comparable; one
// that does not must document its own determinism story.
//
// # Concurrency contract
//
// A Simulator is NOT safe for concurrent use: it owns a PRNG that is
// mutated during execution. The contract for parallel execution — worker
// pools in internal/qserv run many jobs simultaneously — is one Simulator
// per goroutine: construct a fresh Simulator (New/NewNoisy, each with its
// own seeded PRNG) per job and keep all per-job simulation state
// goroutine-local. core.Stack.RunCompiled follows this contract, so a
// shared *core.Stack may be executed from many goroutines at once.
//
// Engines are stateless and shared: all per-run state lives in the
// ExecEnv and in locals. Simulator.RunParallel fans one run's shots out
// across internally-created per-goroutine simulators with derived seeds,
// so callers get parallel shot batches without managing simulators
// themselves. Within a single run, the optimized engine additionally
// parallelises amplitude application across goroutines (bit-identical to
// serial; see quantum.State.SetParallelism) — that parallelism is
// confined to the engine call and invisible to the caller.
//
// Everything a Simulator reads from outside itself is safe to share:
// *circuit.Circuit values and their gates are only read (engines compile
// or fuse into their own structures; they never mutate the input),
// *NoiseModel is only read, and the package-level gate matrices and the
// circuit registry are immutable after init. A *Result is returned
// exclusively to its caller.
//
// The seeded-determinism contract — bit-identical counts across engines
// for a fixed seed — is machine-checked by the qlint analyzer suite
// (internal/lint, run by `make lint` and CI): rngwalk forbids global
// math/rand draws, private PRNG construction outside New/RunParallel,
// and direct PRNG draws inside Engine methods (all randomness flows
// from the Simulator seed through ExecEnv.Rng and the shared helpers);
// detmap keeps map iteration order out of results and samplers.
package qx
