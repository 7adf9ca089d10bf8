// Package qserv is the concurrent quantum accelerator service: the
// host-side runtime that turns the synchronous full-stack pipeline into a
// multi-tenant system. It is the paper's Fig 1 host/accelerator split made
// operational — the classical host "keeps control over the total system
// and delegates the execution of certain parts to the available
// accelerators", and qserv is the piece that does the keeping: admission,
// queueing, scheduling, dispatch and result aggregation for many
// concurrent callers over many heterogeneous backends.
//
// # Architecture
//
//	clients ──HTTP──▶ Service.Submit ──route──┐
//	                        │                 │
//	                 bounded queue     bounded queue     bounded queue
//	                        ▼                 ▼                ▼
//	                  worker pool       worker pool       worker pool
//	                 (perfect stack)  (supercond. stack)  (annealer…)
//	                        │                 │                │
//	            full-artefact cache ◀─shared──┤                │
//	           prefix-artefact cache ◀─shared─┘                │
//	                        │                                  │
//	                  core.Stack.RunCompiled           QUBOBackend.solve
//	                        │
//	                   qx.Dispatch (stabilizer | optimized)
//
// A Job is submitted as cQASM text or an *openql.Program (gate jobs) or a
// *qubo.QUBO (annealing jobs), plus a target backend name and a shot
// count, and comes back as a job ID to poll or await. Completed jobs
// stay queryable up to a retention bound, then the oldest are evicted.
// cQASM text is parsed, validated and flattened at admission, not on the
// worker: a program the parser refuses (unknown gate, qubit or
// condition bit out of range, a non-finite angle, text that is not
// cQASM) or one wider than the routed stack is a 400 naming the
// problem, and the admitted request carries the parsed program in place
// of its text. A wire QUBO of more than 1,024 variables is a 400 too,
// refused before its dense matrix is allocated. A
// bounded memo keyed by a SHA-256 of the program name and text keeps
// each parsed program, with the canonical kernel text its compile-cache
// keys are built from, so a client that submits the same kernel again
// and again has it parsed once; memoised programs are shared
// read-only, like every compile input.
//
// Admission also decides, once, what a gate job runs on (the private
// resolve, shared by Submit and OpenSession): the routed backend's
// current stack, or a copy with the job's device or calibration override
// applied through core.Stack.WithDevice (which validates the device) and
// its pass spec parsed, checked against the stack's stages and stored in
// canonical form; then the width check and the job's full-artefact cache
// key. A backend's own stack carries its compile fingerprint and the
// service's prefix cache from the moment it is stored, so a job without
// overrides only hashes its key. The admitted request carries the stack
// and key; the worker and the session compile and run on them as they
// are and never resolve again.
//
// Admission is one path with two plans. Submit (POST /submit) and
// BindSession (POST /sessions/{id}/bind) only build a job and call the
// private admit, which refuses work before Start and after Stop,
// numbers the job, derives its seed, opens its trace and enqueues it
// without blocking: a full lane fails fast with ErrQueueFull —
// backpressure instead of unbounded memory growth. admit also sets the
// job's plan, the one function its worker calls: compile-and-run for a
// submit, bind-and-run for a session bind. The admitting HTTP routes
// share one error mapping: 400 invalid input, 404 unknown session, 503
// stopped service or full queue (with Retry-After).
//
// Queues are per backend, each drained by its own fixed-size worker pool
// — a gate-based core.Stack (perfect, superconducting, semiconducting),
// or a QUBOBackend: the simulated quantum annealer or the classical
// brute-force fallback — so a slow realistic-stack job cannot head-of-line
// block the perfect-qubit lane, mirroring how a heterogeneous system of
// Fig 1 runs its co-processors independently.
//
// # Devices, calibration and the target API
//
// Every gate backend sits on a first-class device description
// (target.Device): topology, native gate set with timings, and a
// calibration table of measured error rates — per-qubit T1/T2 and
// readout error, per-edge two-qubit error. GET /backends returns each
// gate backend's full device, calibration included, plus its stable
// content hash, in the same JSON schema jobs submit:
//
//	{
//	  "name": "lab-chip", "qubits": 4, "cycle_time_ns": 20,
//	  "gates": {"cz": {"duration": 2}, "x90": {"duration": 1}, ...},
//	  "max_parallel_ops": 0,
//	  "topology": {"kind": "linear"},            // or grid/ring/surface17/
//	                                             // custom with "edges": [[0,1],...]
//	  "calibration": {
//	    "qubits": [{"t1_ns": 30000, "t2_ns": 20000,
//	                "readout_error": 0.01, "single_qubit_error": 0.001}, ...],
//	    "edges":  [{"a": 0, "b": 1, "two_qubit_error": 0.005}, ...]
//	  }
//	}
//
// A job may carry a "target" (a full device replacing the backend's —
// the job compiles and executes against it, with mode, noise model and
// microcode derived via core.NewStackForDevice) or a "calibration" (a
// fresh table overlaid onto the job's device — how clients compile
// against newer calibration data than the service booted with). Both
// are validated at submit time and rejected with 400 when invalid:
// malformed device JSON, wrong-size tables, non-coupler edges,
// out-of-range error rates, or overrides aimed at non-gate backends.
// The device content hash is part of core.Stack.CompileFingerprint, and
// therefore of the compile-cache key: re-calibrating changes the hash,
// so jobs against fresh calibration always recompile instead of reusing
// artefacts routed for the stale error rates, while identical tables
// keep hitting their own cached entry.
//
// Beyond per-job overrides, gate backends support live re-calibration:
// PUT /backends/{name}/calibration (Service.Recalibrate) validates a
// fresh table against the backend's topology and atomically swaps the
// backend's device — a compare-and-swap on the stack pointer. A job runs
// against the stack it was admitted with: jobs admitted before the swap,
// running or still queued, keep the old device, and jobs admitted after
// it compile against the new table. The swap rotates the device hash
// and with it every full-artefact cache key; prefix artefacts, which
// calibration cannot affect, stay live, so the first post-reload job
// recompiles suffix-only. Reloads are counted per backend
// (qserv_calibration_reloads_total).
//
// # Compiler pass pipelines
//
// Gate compilation runs through the pass-manager compiler rather than a
// fixed sequence: each backend stack compiles with a pipeline of named
// passes (decompose, optimize, map, lower-swaps, optimize-lowered,
// fold-rotations, schedule, assemble), configured service-wide by
// Config.Passes and per job through Request.Passes / the JSON "passes"
// field — per-job compilation strategies over the same backends. The
// spec is the whole compiler configuration: per-pass options select
// e.g. calibration-weighted routing that avoids lossy couplers
// ("map(lookahead=8,strategy=noise)"; it degenerates to plain hop-count
// mapping on uniform calibrations) or as-late-as-possible scheduling
// ("schedule(policy=alap)"). Malformed specs, unknown pass names and
// invalid or no-op options are rejected at submit time with
// position-carrying errors, and so is a spec lacking a required stage —
// schedule, or assemble after it on a realistic stack (the routed
// backend's, or a calibrated target override's). The canonical spec is
// part of core.Stack.CompileFingerprint, so jobs with different pipelines
// key distinct compile-cache entries and can never alias each other's
// artefacts, while equivalent spellings of one spec share an entry.
// Every compiled artefact carries a compiler.CompileReport — per-pass
// wall time, gate count, depth, added SWAPs — which the job's trace
// renders as per-kernel and per-pass spans and GET /metrics aggregates
// per backend and pass (cache hits excluded: they skipped the pipeline)
// as run counters and a wall-time histogram per pass, so operators can
// see where compile time goes — averages and tails — pass by pass.
// GET /jobs/{id} stays small: it names the engine and the result, not
// the report.
//
// # Execution engines and parallel shots
//
// Beneath every gate backend sits one execution path: qx.Dispatch sends
// each compiled circuit to the stabilizer tableau
// when it is Clifford throughout and the backend noise model is
// stochastic Pauli (polynomial cost, so 100-qubit Clifford jobs execute
// in milliseconds) and to the optimized dense engine otherwise. Every
// engine returns identical seeded counts on circuits they share, so
// dispatch is pure performance and requests carry no engine choice; a
// stray "engine" field in a JSON body is ignored.
// The engine that actually ran surfaces as the job view's "engine"
// field, an "engine" attribute on the execution span, and the
// qserv_engine_dispatch_total{engine=...} counter, making the Clifford
// fast-path hit rate directly observable. Counts for registers wider
// than 63 qubits are rendered into the same bitstring-keyed result map
// as narrow ones.
//
// Jobs with large shot counts (at least core.ParallelShots, 4096)
// execute as parallel shot batches: shots are split across CPU cores,
// each batch on its own derived-seed simulator, and the counts merged —
// so a single heavy job uses the machine even when its lane has one
// worker. Per-job parallelism composes with the worker pools above it
// and the chunk-parallel amplitude kernels below it (see internal/qx and
// internal/quantum for that concurrency contract).
//
// # The two-level compile cache
//
// Gate backends share a two-level compile cache. Level 2 — the
// full-artefact cache — is keyed by (canonical kernel partition, stack
// compile fingerprint, which folds in the pass spec and the device
// content hash): repeated submissions of the same program to the same
// target with the same pipeline skip the compiler passes entirely and
// go straight to seeded QX execution (core.Stack.RunCompiled). Level 1
// — the prefix-artefact cache — holds each kernel's output from the
// pipeline's platform-generic prefix (decompose/optimize/
// fold-rotations), keyed by (gate-set hash, canonical prefix spec,
// kernel content hash) and deliberately NOT by the device hash,
// scheduling policy or mapping options, which only the variant suffix
// reads. A job that misses level 2 but hits level 1 — a map/schedule
// variant, a scheduling-policy change, a recalibration — re-runs just
// the suffix passes against the fetched prefix artefacts, the ≥2x
// recompile win BenchmarkPrefixCachedRecompile measures. Recalibrating
// therefore invalidates exactly what the fresh table can affect:
// full-artefact entries rotate with the device hash while prefix
// entries stay live (prefix passes cannot observe calibration — proven
// by a -race test racing calibration overrides against both levels).
//
// Jobs that override the pass spec compile (and cache) their own full
// artefacts, sharing prefix artefacts whenever
// their pipelines agree on the generic prefix. In-flight computations
// are deduplicated at both levels (singleflight), so N simultaneous
// submissions of one new program compile each artefact once.
//
// Execution is deterministic per job: every job gets a derived seed, and
// all mutable simulator state is created per run (see the concurrency
// contract in internal/qx) — engines themselves are stateless and shared
// — so results are reproducible and the whole service is race-free under
// `go test -race`. Parallel shot batches stay deterministic per
// (seed, core count).
//
// # Parametric compilation and variational sessions
//
// Hybrid variational algorithms (QAOA, VQE — the paper's Fig 8 loop)
// resubmit one circuit shape hundreds of times with only rotation
// angles changing. Sessions make that loop cheap. A program whose
// angles are symbolic expressions (circuit.Sym, cQASM `rz q[0],
// 2*$gamma`) compiles with the symbols preserved through every pass;
// the artefact records a bind table of every symbolic slot in the
// final circuit and the assembled eQASM bundles, so binding a
// parameter point (openql.Compiled.BindArtefact) is an O(#slots)
// patch sharing the schedule, mapping result and compile report — the
// mapper, scheduler and assembler never re-run.
//
// Service.OpenSession (POST /sessions) validates, routes and resolves
// like Submit, eagerly compiles the parameterised program on the
// resolved stack — through the ordinary two-level cache — and pins the
// compiled artefact in a session. Service.BindSession
// (POST /sessions/{id}/bind) then streams parameter points, each
// admitted as a bind-and-run job: its run records a "bind" span —
// symbols attached — where an ordinary job records "compile", and its
// seeded execution reuses the pinned stack. Bind values must cover the session's symbols exactly; missing
// and stray names are rejected at submit. Sessions expire after
// Config.SessionTTL idle time and the store is LRU-bounded by
// Config.MaxSessions (opening past the bound evicts the
// least-recently-used session); expiry is swept lazily on access, and
// DELETE /sessions/{id} closes one explicitly.
//
// The cache interaction is what makes sessions one-compile cheap:
// kernel content hashes fold symbolic expressions in symbolically
// (coefficients and symbol names, not bound values), so every binding
// — and every re-opened session — of one ansatz shares a single
// full-artefact entry and a single per-kernel prefix entry; only a
// genuinely different circuit shape compiles anew. Session counters
// surface as qserv_sessions_active, qserv_sessions_opened_total,
// qserv_sessions_closed_total{reason=expired|evicted}, qserv_binds_total
// and the qserv_bind_seconds histogram. The bind-versus-recompile win is locked into CI by
// BenchmarkParamBindVsRecompile's bind_vs_compile_pct ceiling (≥10x).
//
// # Observability
//
// The service is instrumented end to end through internal/obs — a
// dependency-free metrics registry and span tracer — wired in by
// default and removable with Config.DisableMetrics / a negative
// Config.TraceRing.
//
// Tracing: every job gets a trace whose ID is the job ID, started at
// submit and retained in a bounded ring (Config.TraceRing). The root
// "job" span is pinned to the job's submit/finish timestamps, so its
// duration equals the reported latency exactly, and its children
// partition it: "queue.wait" (admission to worker pickup) and "run",
// under which the backend records "compile" — with a cache attribute
// (hit/miss/off), per-kernel prefix-compile spans and per-pass suffix
// spans synthesised from the compiler.CompileReport — and "execute"
// with an "engine" child carrying the measured execution time and shot
// batch count. GET /jobs/{id}/trace returns the span tree as JSON,
// GET /jobs/{id} includes the trace_id, and POST /submit echoes it in
// the X-Trace-Id response header.
//
// Metrics: a single obs.Registry (Config.Metrics, or a private one by
// default) holds every counter, gauge and histogram — jobs submitted/
// completed by status, per-backend latency and queue-wait histograms,
// live queue depth, worker busy time, both compile-cache levels
// (qserv_compile_cache_ops_total, _entries, and the explicit
// qserv_compile_cache_skips_total{level=full|prefix} counting work
// skipped: full pipelines and per-kernel prefixes), calibration
// reloads, compile/execute histograms, per-pass compile timings and
// HTTP request counts/durations (every request is wrapped in a timing
// middleware labelled by route pattern). GET /metrics serves the
// Prometheus text exposition — the service's one metrics surface, which
// obs.ParseText reads back for tools and tests. The arithmetic is
// auditable: per backend, pass runs == jobs done −
// compile_cache_skips{full}.
//
// Logging: Config.Logger accepts a *slog.Logger (default: discard).
// Job lifecycle events log at Info and HTTP access at Debug, all keyed
// by trace_id so logs, metrics and traces join on one identifier.
//
// The embedded HTTP API (Service.Handler) exposes POST /submit,
// GET /jobs/{id} (with optional ?wait=duration long-polling),
// GET /jobs/{id}/trace, the session lifecycle — POST /sessions,
// GET /sessions, GET /sessions/{id}, POST /sessions/{id}/bind,
// DELETE /sessions/{id} — GET /backends — device descriptions,
// calibration data and content hashes — PUT /backends/{name}/calibration,
// and GET /metrics — queue depth, per-backend throughput, both cache
// levels (qserv_compile_cache_ops_total{level=full|prefix}, per-backend
// qserv_compile_cache_skips_total{level="prefix"} counting kernels
// served suffix-only) and per-pass compile timings — so operators can
// see where the time went. Per-backend completed jobs and worker busy
// seconds are the host's Amdahl accounting: how much of the total time
// each accelerator took. A job's trace carries the
// per-kernel breakdown: one "kernel:<name>" span per kernel, marked
// prefix_cached when its prefix artefact came from the cache. Every
// response body is compact JSON.
// cmd/qservd wires the default heterogeneous system behind this API
// (-prefix-cache sizes the new layer), can serve
// any device JSON file as an extra backend via -target, and adds
// -metrics, -trace-ring, -pprof and the -log-* flags for the
// observability layer.
//
// # Load testing, SLO methodology and graceful shutdown
//
// Service-level objectives for this stack are not asserted from single
// runs. The load harness (internal/loadgen, cmd/qload) replays
// declarative scenarios (scenarios/*.json) against a booted service and
// gates the results with the repo's experiment standards: every
// scenario runs at 3 fixed seeds (42, 123, 456), each seed's
// deterministically generated workload must satisfy every SLO bound —
// latency percentile ceilings, error/reject-rate ceilings, cache
// hit-rate floors, queue-depth ceilings — and cross-phase "compare"
// hypotheses (e.g. cache-hot p95 beats cache-cold p95) must show at
// least a 20% effect size at every seed, directionally consistent: one
// contradicting seed fails the whole gate even if the 3-seed mean looks
// fine. Workload generation is byte-reproducible — one (scenario, seed)
// pair always yields the identical canonical op stream, with every op
// carrying a non-zero derived seed so the service never substitutes its
// own — which makes a gate failure replayable offline. The measured
// latencies are client-observed submit→result times under open-loop
// Poisson arrivals (ops fire at their scheduled offsets whether or not
// earlier ops finished, so queueing delay is not silently absorbed into
// the arrival process) or closed-loop think-time lanes, and the report
// joins them with the server's own /metrics deltas — cache
// hit rates, engine-dispatch mix, queue-depth samples — so client and
// server views of the same run can be cross-checked. `make load-smoke`
// is the required CI gate; `make load-gate` is the nightly full matrix.
//
// Load tests lean on the service's graceful shutdown: Service.Drain
// stops admission immediately (Submit fails with ErrStopped), lets the
// worker pools finish every admitted job, and respects the caller's
// context deadline; Service.Stop is Drain with no deadline. cmd/qservd
// traps SIGTERM/SIGINT and drains within -drain-timeout, so in-flight
// jobs complete before the process exits.
//
// Two of this package's contracts are machine-checked by the qlint
// analyzer suite (internal/lint, run by `make lint` and CI): detmap
// keeps map iteration order out of API responses, logs and
// eviction decisions, and spanend verifies every obs span the service
// starts is ended on all return paths. Loops that are provably
// order-independent carry //qlint:nondeterministic-ok annotations with
// their rationale.
package qserv
