// Package repro is a full-stack quantum accelerator in Go, reproducing
// "Quantum Computer Architecture: Towards Full-Stack Quantum
// Accelerators" (Bertels et al., DATE 2020).
//
// The stack spans every layer of the paper: the OpenQL-style programming
// API (internal/openql), the cQASM common assembly (internal/cqasm), the
// pass-manager compiler (internal/compiler), the eQASM executable ISA
// (internal/eqasm), the micro-architecture with microcode, timing control
// and queues (internal/microarch), and the QX simulator with perfect and
// realistic qubits (internal/qx). On top sit the paper's three
// accelerators: the superconducting control stack (internal/core,
// internal/rb), quantum genome sequencing (internal/genome, internal/qam,
// internal/grover), and hybrid optimisation (internal/tsp, internal/qubo,
// internal/anneal, internal/embed, internal/qaoa).
//
// The hardware layer is described by a first-class device model
// (internal/target): a target.Device unifies qubit count, qubit-plane
// topology, the native gate set with timings, control-channel limits and
// a Calibration table — per-qubit T1/T2 and readout error, per-edge
// two-qubit error. Devices serialise to a canonical JSON schema (golden
// examples under examples/devices/), validate themselves, and carry a
// stable content hash that changes whenever anything — including the
// calibration — changes. The three presets (perfect, superconducting/
// Surface-17, semiconducting) come from target.Preset; compiler.Platform
// is a thin view of a device (compiler.PlatformFor), core stacks are
// built from devices (core.NewStackForDevice, which derives the
// execution noise model from the calibration), and the device hash is
// folded into core.Stack.CompileFingerprint — so re-calibrating a device
// invalidates every compiled artefact cached against the stale table.
// Devices flow through every layer: openql.CompileOptions.Target,
// qserv's GET /backends and per-job "target"/"calibration" overrides,
// and -target/-calibration flags on cmd/qx, cmd/qservd and cmd/openqlc.
//
// The compiler is a configurable pass pipeline rather than a hard-wired
// sequence: a fixed table of compiler.Pass built-ins (decompose,
// optimize, map, lower-swaps, optimize-lowered, fold-rotations, schedule,
// assemble) executes over a shared compiler.PassContext under a
// compiler.Pipeline, which records a CompileReport of per-pass wall time,
// gate count, depth and added SWAPs. The pass spec is the compiler's one
// configuration: per-pass options — "map(lookahead=8,strategy=noise)",
// "map(placement=greedy)", "schedule(policy=alap)" — are parsed up front
// with position-carrying errors, so malformed specs and options that
// could have no effect fail at submission, not mid-compile.
// map(strategy=noise) weighs placement and routing by calibration edge
// fidelity instead of hop count: it routes around lossy couplers to
// maximise compiler.ExpectedSuccess, and degenerates gate-for-gate to the
// hop-count mapper on uniform calibrations (both differentially tested;
// the two mappers share one routing loop and differ only in cost model).
// An empty spec selects compiler.DefaultPassSpec — reproducing the
// classic decompose/optimize/map/schedule flow gate for gate, enforced by
// a differential test — and a pass spec string selects custom pipelines
// end to end: openql.CompileOptions.Passes, core.Stack.Passes (part of
// the compile fingerprint in canonical form, so the qserv compile cache
// keys equivalent spellings on one entry), per-job "passes" in the qserv
// API, and -passes flags on cmd/qx, cmd/qservd and cmd/openqlc. Per-pass
// metrics surface in core.Report, qserv job views and /metrics (run
// counters and a wall-time histogram per backend and pass), and the CLI
// pass reports.
//
// Compilation itself is two-level (compiler.Pipeline.Split): the
// platform-generic prefix of a pipeline — the leading decompose/
// optimize/fold-rotations run, whose output depends only on the circuit
// and the native gate set — compiles kernel by kernel, in program
// order, and the per-kernel artefacts are concatenated before the
// variant suffix (mapping, scheduling, assembly) runs over the whole
// program. Kernel boundaries are optimisation barriers, so every
// kernel's prefix artefact (compiler.PrefixArtefact) is reusable by any
// program embedding the same kernel. Prefix artefacts cache independently of the full
// compiled artefacts: keyed by gate-set hash + prefix spec + kernel
// content hash (compiler.PrefixKey, openql.Kernel.ContentHash) rather
// than the device content hash, so a recompile that only changes mapping
// options, scheduling policy or calibration re-runs just the suffix — the ≥2x cached-recompile win
// BenchmarkPrefixCachedRecompile measures, locked in by the CI
// benchmark-regression gate (cmd/benchgate against the BENCH_5 baseline
// the workflow promotes between runs as an artifact; machine-local
// baselines from `make bench-baseline` are gitignored).
//
// The execution layer itself is pluggable: internal/qx defines an Engine
// interface — execute a compiled circuit into sampled counts or a final
// state — with three implementations: the naive reference engine, the
// optimized dense engine (specialized bit-twiddling kernels, precompiled
// per-circuit matrix tables, chunk-parallel amplitude application,
// cumulative-distribution sampling), and the stabilizer engine, an
// Aaronson–Gottesman CHP tableau that executes Clifford circuits in
// polynomial time — 100-qubit GHZ sampling and distance-7 surface-code
// ESM rounds in milliseconds, where dense cost doubles per qubit
// (counts beyond 63 qubits are keyed by bitstring in
// qx.Result.WideCounts). Every layer runs one engine path, the "auto"
// meta-engine, which dispatches per circuit: circuit.IsClifford
// (structural Clifford gates plus any rotation at an exact multiple of
// π/2) and a tableau-compatible noise model (stochastic Pauli; amplitude
// damping forces the dense path) select the tableau, everything else
// runs dense. All engines are differentially tested to produce
// identical seeded counts — the stabilizer engine mirrors the dense PRNG
// walk draw for draw — so engines are plain values only tests pin
// (qx.Simulator.Engine, core.Stack.Engine; nil means auto), and no flag
// or request field selects one. core.Report.Engine names the resolved
// dispatch target, which qserv surfaces in job views, execution spans
// and qserv_engine_dispatch_total. The fast path lifts the QEC and RB
// layers to the regimes the paper argues for: circuit-level syndrome
// extraction at distance ≥ 7 (internal/qec, examples/surface_code) and
// simultaneous randomized benchmarking on 50+ qubits (internal/rb). A
// CI benchmark (BenchmarkStabilizerVsDense) holds the 22-qubit Clifford
// speedup above 100x through the stabilizer_vs_dense_pct ceiling gate.
// Large shot counts fan out across CPU cores in parallel shot batches
// (qx.Simulator.RunParallel, core.ParallelShots,
// microarch.Machine.ShotWorkers).
//
// Above the single-caller stack sits the concurrent accelerator service
// (internal/qserv): a bounded job queue feeding per-backend worker pools
// over the heterogeneous accelerators of Fig 1 — the gate-based stacks,
// the annealer and the classical fallback (internal/accel) — with the
// shared two-level compile cache: a full-artefact LRU so exact
// resubmissions skip compilation entirely, and a prefix-artefact LRU so
// map/schedule/calibration variants of known kernels recompile
// suffix-only (both singleflight-deduplicated; /metrics reports both
// levels' hits and misses and per-backend prefix hits). Backends support live
// re-calibration (PUT /backends/{name}/calibration) that atomically
// swaps the device's calibration table and rotates the compile-cache
// keys through the device hash. cmd/qservd serves it over HTTP
// (/submit, /jobs/{id}, /metrics) and examples/service drives the API end
// to end; this is the host-side runtime that turns the reproduction into
// a multi-tenant system.
//
// The service is observable end to end through internal/obs, a
// dependency-free metrics registry and span tracer. Every job carries a
// trace (ID = job ID) whose spans cover queue wait, compile — cache
// outcome, per-kernel prefix compiles, per-pass suffix timings from the
// CompileReport — and execution down to the engine's shot batches;
// GET /jobs/{id}/trace returns the span tree and span durations sum to
// the job's reported latency exactly. The same registry backs
// GET /metrics (Prometheus text exposition: job counters, per-backend
// latency and queue-wait histograms, both compile-cache levels,
// per-pass compile timings, HTTP request metrics), the one metrics
// surface every tool reads. Structured slog logging is keyed by
// trace_id, and cmd/qservd exposes net/http/pprof behind -pprof. A CI
// benchmark (BenchmarkObsOverhead) holds the instrumentation overhead
// under 5% through the cmd/benchgate ceiling gate.
//
// Compilation is parametric end to end. Circuits may carry symbolic
// angle expressions (circuit.Sym / circuit.ParamExpr — normalised
// linear forms over named parameters) that survive every compiler pass
// — decomposition scales them, the peephole optimiser folds them,
// mapping, scheduling and eQASM assembly carry them through — into the
// compiled artefact, which records a bind table of every symbolic slot
// in the final circuit and the assembled bundles. Binding a parameter
// point (openql.Compiled.BindArtefact, or circuit.Circuit.Bind before
// compilation) is an O(#slots) patch that shares the schedule, mapping
// result and compile report with the symbolic artefact — no pass
// re-runs — and kernel content hashes treat expressions symbolically,
// so every binding of one ansatz shares a single entry in both
// compile-cache levels. internal/qserv exposes this as variational
// sessions: POST /sessions compiles the parameterised program once and
// pins the artefact (TTL-expired and LRU-bounded), POST
// /sessions/{id}/bind streams parameter points as cheap sub-jobs whose
// traces carry a "bind" span where ordinary jobs record "compile".
// examples/hybrid_qaoa and examples/tsp drive optimiser loops through
// the session API, and BenchmarkParamBindVsRecompile holds the bind
// path at ≥10x over full recompilation through the CI
// bind_vs_compile_pct ceiling.
//
// The benchmark harness in bench_test.go regenerates every figure and
// quantitative claim of the paper; see DESIGN.md for the experiment index
// and EXPERIMENTS.md for paper-vs-measured results.
package repro
