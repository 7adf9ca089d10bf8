package qserv

import (
	"sync"

	"repro/internal/compiler"
	"repro/internal/obs"
)

// serviceMetrics owns every qserv metric family in the service's
// registry; GET /metrics is the one surface that reads them.
//
// A nil *serviceMetrics (Config.DisableMetrics) disables recording
// everywhere; sites guard with a single nil check on the pool or
// service handle.
type serviceMetrics struct {
	jobsSubmitted *obs.Counter
	jobsCompleted *obs.CounterVec // backend, status
	latency       *obs.HistogramVec
	queueWait     *obs.HistogramVec
	queueDepth    *obs.GaugeVec
	busySeconds   *obs.CounterVec
	// cacheSkips counts compile work skipped thanks to the two-level
	// cache, per backend and level: level="full" is jobs whose whole
	// pipeline was skipped (a full-artefact hit), level="prefix" is
	// kernels whose platform-generic prefix was fetched instead of
	// recompiled. Together with the per-level hit/miss mirrors below
	// this makes the pass-run accounting auditable: pass runs lag job
	// counts by exactly the full-level skips.
	cacheSkips   *obs.CounterVec // backend, level
	cacheOps     *obs.CounterVec // level, op — scrape-time mirror of the shared caches
	cacheEntries *obs.GaugeVec   // level — scrape-time mirror
	calibReloads *obs.CounterVec // backend
	compileSecs  *obs.HistogramVec
	execSecs     *obs.HistogramVec
	// engineDispatch counts gate-job executions by the qx engine that
	// actually ran them — on stacks with no pinned engine this is the
	// qx.Dispatch target (stabilizer vs optimized), making the Clifford
	// fast-path hit rate directly observable.
	engineDispatch *obs.CounterVec   // engine
	passSecs       *obs.HistogramVec // backend, pass
	passRuns       *obs.CounterVec
	passGatesIn    *obs.CounterVec
	passGatesOut   *obs.CounterVec
	passSwaps      *obs.CounterVec
	retireSecs     *obs.Histogram
	// sessionsOpened/sessionsExpired/sessionsEvicted/bindsTotal/bindSecs
	// instrument the variational session layer: eager compiles pinned
	// per session, the service closing idle or surplus sessions, and the
	// bind fast path that patches the pinned artefact instead of
	// compiling. qserv_sessions_active is a GaugeFunc registered next to
	// the other scrape-time mirrors (registerCollectors).
	sessionsOpened  *obs.Counter
	sessionsExpired *obs.Counter // qserv_sessions_closed_total{reason="expired"}
	sessionsEvicted *obs.Counter // qserv_sessions_closed_total{reason="evicted"}
	bindsTotal      *obs.Counter
	bindSecs        *obs.Histogram
	httpRequests    *obs.CounterVec // method, path, code
	httpSecs        *obs.HistogramVec
}

// newServiceMetrics registers the qserv families. A registry hosts at
// most one service: registering twice panics on the duplicate names.
func newServiceMetrics(r *obs.Registry) *serviceMetrics {
	lb := obs.LatencyBuckets
	sessionsClosed := r.NewCounterVec("qserv_sessions_closed_total",
		"Sessions the service closed, by reason: expired = idle past the TTL, evicted = least-recently-used past the session cap.",
		"reason")
	return &serviceMetrics{
		jobsSubmitted: r.NewCounter("qserv_jobs_submitted_total",
			"Jobs admitted by Submit."),
		jobsCompleted: r.NewCounterVec("qserv_jobs_completed_total",
			"Jobs completed, by backend and terminal status.", "backend", "status"),
		latency: r.NewHistogramVec("qserv_job_latency_seconds",
			"Submit-to-finish job latency.", lb, "backend"),
		queueWait: r.NewHistogramVec("qserv_job_queue_wait_seconds",
			"Submit-to-start queue wait.", lb, "backend"),
		queueDepth: r.NewGaugeVec("qserv_queue_depth",
			"Queued jobs per backend, sampled at scrape.", "backend"),
		busySeconds: r.NewCounterVec("qserv_worker_busy_seconds_total",
			"Total worker time spent executing jobs.", "backend"),
		cacheSkips: r.NewCounterVec("qserv_compile_cache_skips_total",
			"Compile work skipped by cache level: full = whole pipelines, prefix = per-kernel prefixes.",
			"backend", "level"),
		cacheOps: r.NewCounterVec("qserv_compile_cache_ops_total",
			"Shared compile-cache lookups by level and outcome.", "level", "op"),
		cacheEntries: r.NewGaugeVec("qserv_compile_cache_entries",
			"Entries held per compile-cache level.", "level"),
		calibReloads: r.NewCounterVec("qserv_calibration_reloads_total",
			"Live calibration reloads applied via PUT /backends/{name}/calibration.", "backend"),
		compileSecs: r.NewHistogramVec("qserv_compile_seconds",
			"Wall time of full compile-pipeline runs (cache hits excluded).", lb, "backend"),
		execSecs: r.NewHistogramVec("qserv_execute_seconds",
			"Measured execution wall time per gate job.", lb, "backend"),
		engineDispatch: r.NewCounterVec("qserv_engine_dispatch_total",
			"Gate-job executions by the qx engine that ran them (the qx.Dispatch target unless the stack pins one).", "engine"),
		passSecs: r.NewHistogramVec("qserv_compile_pass_seconds",
			"Wall time per compiler pass run.", lb, "backend", "pass"),
		passRuns: r.NewCounterVec("qserv_compile_pass_runs_total",
			"Compiler pass executions.", "backend", "pass"),
		passGatesIn: r.NewCounterVec("qserv_compile_pass_gates_in_total",
			"Gates entering each compiler pass.", "backend", "pass"),
		passGatesOut: r.NewCounterVec("qserv_compile_pass_gates_out_total",
			"Gates leaving each compiler pass.", "backend", "pass"),
		passSwaps: r.NewCounterVec("qserv_compile_pass_added_swaps_total",
			"Routing SWAPs inserted by mapping passes.", "backend", "pass"),
		retireSecs: r.NewHistogram("qserv_job_retire_seconds",
			"Wall time of job retention bookkeeping after finish (outside the job's trace: the job is already observable as finished).", lb),
		sessionsOpened: r.NewCounter("qserv_sessions_opened_total",
			"Variational sessions opened (eager compiles pinned for streaming binds)."),
		// Both reasons resolve here so they are exposed as 0 before the
		// first close.
		sessionsExpired: sessionsClosed.With("expired"),
		sessionsEvicted: sessionsClosed.With("evicted"),
		bindsTotal: r.NewCounter("qserv_binds_total",
			"Parameter bindings streamed through sessions — jobs served by the bind fast path instead of the compiler."),
		bindSecs: r.NewHistogram("qserv_bind_seconds",
			"Wall time of artefact bind patches (the per-iteration compile-replacement cost).", lb),
		httpRequests: r.NewCounterVec("qserv_http_requests_total",
			"HTTP API requests by method, route pattern and status code.",
			"method", "path", "code"),
		httpSecs: r.NewHistogramVec("qserv_http_request_duration_seconds",
			"HTTP API request latency by route pattern.", lb, "path"),
	}
}

// pool resolves one backend's handles out of the vecs, so the worker
// hot path touches no label lookups. Nil-safe: a nil receiver (metrics
// disabled) yields a nil poolMetrics.
func (m *serviceMetrics) pool(backend string) *poolMetrics {
	if m == nil {
		return nil
	}
	return &poolMetrics{
		m:            m,
		backend:      backend,
		done:         m.jobsCompleted.With(backend, "done"),
		failed:       m.jobsCompleted.With(backend, "failed"),
		latency:      m.latency.With(backend),
		queueWait:    m.queueWait.With(backend),
		queueDepth:   m.queueDepth.With(backend),
		busy:         m.busySeconds.With(backend),
		fullSkips:    m.cacheSkips.With(backend, "full"),
		prefixSkips:  m.cacheSkips.With(backend, "prefix"),
		calibReloads: m.calibReloads.With(backend),
		compileSecs:  m.compileSecs.With(backend),
		execSecs:     m.execSecs.With(backend),
		passes:       map[string]*passHandles{},
	}
}

// poolMetrics is one backend pool's resolved instrument handles — the
// only per-job state the pool keeps.
type poolMetrics struct {
	m       *serviceMetrics
	backend string

	done, failed           *obs.Counter
	latency, queueWait     *obs.Histogram
	queueDepth             *obs.Gauge
	busy                   *obs.Counter
	fullSkips, prefixSkips *obs.Counter
	calibReloads           *obs.Counter
	compileSecs, execSecs  *obs.Histogram

	mu     sync.Mutex
	passes map[string]*passHandles
}

// passHandles is one compiler pass's resolved instruments within a pool.
type passHandles struct {
	dur      *obs.Histogram
	runs     *obs.Counter
	gatesIn  *obs.Counter
	gatesOut *obs.Counter
	swaps    *obs.Counter
}

// pass resolves (and caches) the handles for one pass name.
func (p *poolMetrics) pass(name string) *passHandles {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.passes[name]
	if !ok {
		h = &passHandles{
			dur:      p.m.passSecs.With(p.backend, name),
			runs:     p.m.passRuns.With(p.backend, name),
			gatesIn:  p.m.passGatesIn.With(p.backend, name),
			gatesOut: p.m.passGatesOut.With(p.backend, name),
			swaps:    p.m.passSwaps.With(p.backend, name),
		}
		p.passes[name] = h
	}
	return h
}

// recordCompile folds one compile report into the pool's pass
// instruments — called only for jobs that actually ran the pipeline
// (full-artefact cache hits reuse a prior job's artefact and are
// counted as skips instead).
func (p *poolMetrics) recordCompile(rep *compiler.CompileReport) {
	if p == nil || rep == nil {
		return
	}
	p.compileSecs.ObserveSeconds(rep.TotalNs)
	if rep.PrefixHits > 0 {
		p.prefixSkips.Add(float64(rep.PrefixHits))
	}
	for _, m := range rep.Passes {
		h := p.pass(m.Pass)
		h.runs.Inc()
		h.dur.ObserveSeconds(m.WallNs)
		h.gatesIn.Add(float64(m.GatesBefore))
		h.gatesOut.Add(float64(m.GatesAfter))
		if m.AddedSwaps > 0 {
			h.swaps.Add(float64(m.AddedSwaps))
		}
	}
}
