// Package loadgen is the scenario-driven load harness for the qserv
// service stack: a deterministic workload generator, an HTTP replay
// runner and a BLIS-style multi-seed SLO gate, driven by declarative
// scenario files (scenarios/*.json) and fronted by cmd/qload.
//
// # Scenarios
//
// A scenario declares a complete load experiment: the service shape to
// boot (qubits, workers, queue and cache bounds), a weighted
// multi-tenant population, an ordered list of traffic phases, optional
// mid-run fault events, and the SLO block the run is gated on. Phases
// mix weighted circuit classes — qft, ghz, random, grover, qaoa, qec
// and genome, each built gate-for-gate from the repository's own
// algorithm packages — under either an open-loop Poisson arrival
// process (exponential inter-arrival gaps, submitted regardless of how
// the service keeps up, so overload latency is measured rather than
// hidden by client back-pressure) or a closed-loop process (a fixed
// client population with think time). A mix entry's variants count
// steers compile-cache temperature: one variant is perfectly cache-hot,
// many variants keep the cache cold. Session phases open parametric
// QAOA sessions and storm them with binds, exercising the bind-only
// fast path; recalibrate events PUT a drifted calibration table
// mid-run, rotating the full compile-cache keys live.
//
// # Determinism
//
// Workload generation is byte-reproducible: one (scenario, seed) pair
// materialises one workload, byte-identical across runs and platforms
// (Workload.Canonical / Workload.SHA256). Every op carries its payload,
// arrival offset and a non-zero derived per-job seed, so the replay
// adds wall-clock timing and nothing else. Sub-seeds derive from the
// run seed with a splitmix64-style fold over (phase, mix, variant, op)
// coordinates, so editing one phase does not reshuffle another.
//
// # SLO methodology
//
// Reports combine client-observed submit→result latency with
// server-side /metrics deltas (cache hit rates over the run window,
// engine-dispatch mix, queue-depth samples). A service whose /metrics
// carries no qserv samples (qservd -metrics=false) is refused before
// the run starts. The gate follows
// the BLIS experiment standards: a scenario's SLO block is evaluated
// independently at three seeds (42, 123, 456 by default) and the gate
// passes only with directional consistency — every bound must hold in
// every seed; a single contradicting seed fails the gate. Cross-phase
// compare hypotheses ("cache-hot p95 beats cache-cold p95") must show
// at least a 20% relative effect (configurable via min_effect) in
// every seed, mirroring BLIS's >20% effect-size floor. Gate reports
// carry mean/min/max across seeds for every headline metric.
package loadgen
