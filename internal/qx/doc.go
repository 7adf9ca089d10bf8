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
//     chunk-parallel across goroutines on large states. Perfect measured
//     runs walk the outcome tree described below, each node holding a
//     state vector. A circuit with no measurement samples its executed
//     state through a cumulative distribution with binary search. Noisy
//     runs replay every shot in full on one reset state, because noise
//     draws come between the measurements.
//   - Stabilizer: an Aaronson–Gottesman CHP tableau —
//     n destabilizer and n stabilizer generators as packed X/Z bit rows
//     plus a sign — O(n) per Clifford gate and O(n²) per measurement,
//     so cost is polynomial in qubit count where dense engines double
//     per qubit. It executes only Clifford circuits (see below) and,
//     with noise, only tableau-compatible models: stochastic Pauli
//     channels — depolarizing, T2 dephasing, readout flips — are fine,
//     amplitude damping (T1) is rejected because a non-unital channel
//     has no stabilizer unravelling. Perfect measured runs walk the same
//     outcome tree, each node holding a tableau. Noisy runs replay every
//     shot on one tableau reset to |0…0>. Results for registers wider
//     than 63 qubits land in Result.WideCounts, keyed by bitstring.
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
// The outcome tree (tree.go) is the one perfect measured shot loop of
// both Optimized and Stabilizer. Only measure and prep_z draw from the
// PRNG on a perfect run (both engines lower measure_all to one measure
// per qubit), so the ops between two draws depend only on the outcomes
// drawn so far, and each measurement-outcome history is simulated once,
// not once per shot. A node holds the engine's state just before its
// history's next random draw, that draw's P(1) and the bits measured on
// the way, as one packed-word mask on registers of any width; a child is
// built the first time a shot draws its outcome — a clone of the parent,
// collapsed, run up to the next random draw. A forced draw (P(1) exactly
// 0 or 1) does not branch: it is applied when its node is built, and a
// shot only consumes its PRNG value, so a surface-code cycle, whose
// syndrome draws are all forced, is one node. A later shot down a known
// history only draws and compares at each node. The tree's memory beyond
// the root stays below 1<<18 complex128 values (4 MiB): each node is
// charged 64 values for its headers plus its state — a state vector its
// amplitudes, a tableau its row words — so no run builds more than 4096
// nodes. A shot that reaches a child past the cap copies its node into
// one scratch state and runs the rest of its history there, so at 18 or
// more dense qubits every shot replays from the first random draw. The
// counts are exact: each shot makes the reference engine's draws in the
// same order, through the same quantum.DrawOutcome comparison, against
// P(1) values computed on states that history makes identical.
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
// Simulator.Release, the simulator's last use, hands its PRNG to a
// package pool from which New takes one and reseeds it: a reseeded
// source yields exactly the stream of a fresh rand.NewSource, so seeded
// counts do not depend on recycling, and a job that releases its
// simulator allocates no 5 KB source. RunCompiled and RunParallel's
// per-batch simulators release theirs.
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
// math/rand draws, private PRNG construction outside New,
// and direct PRNG draws inside Engine methods (all randomness flows
// from the Simulator seed through ExecEnv.Rng and the shared helpers);
// detmap keeps map iteration order out of results and samplers.
package qx
