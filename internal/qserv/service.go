package qserv

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/target"
)

// ErrQueueFull is returned by Submit and BindSession when the bounded
// job queue is at capacity — callers should back off and retry (HTTP
// maps it to 503).
var ErrQueueFull = errors.New("qserv: job queue full")

// ErrStopped is returned by Submit, OpenSession and BindSession after
// Stop.
var ErrStopped = errors.New("qserv: service stopped")

// Config sizes the service. Zero values select the defaults noted per
// field.
type Config struct {
	// QueueSize bounds each backend's job queue (default 64). Queues are
	// per backend so a saturated lane cannot starve the others.
	QueueSize int
	// DefaultWorkers is the pool size used when AddBackend is called with
	// workers <= 0 (default 2).
	DefaultWorkers int
	// DefaultShots is applied to gate jobs submitted with Shots <= 0
	// (default 1024).
	DefaultShots int
	// CacheSize bounds the full-artefact compile cache; negative disables
	// caching (default 256 entries).
	CacheSize int
	// PrefixCacheSize bounds the prefix-artefact cache — level 1 of the
	// two-level compile cache, holding per-kernel platform-generic
	// artefacts that survive recalibrations and map/schedule variants.
	// 0 defaults to 4× the resolved CacheSize (prefix artefacts are
	// smaller and shared across variants); negative disables the level.
	PrefixCacheSize int
	// Seed is the base of the per-job seed derivation (default 1).
	Seed int64
	// Passes is the compiler pass spec DefaultService configures the gate
	// stacks with; empty uses the default pipeline. Individual jobs may
	// still override it per request.
	Passes string
	// RetainJobs bounds how many completed jobs stay queryable; the
	// oldest finished jobs are evicted beyond it (default 4096; negative
	// retains everything — for tests and short-lived services).
	RetainJobs int
	// SessionTTL bounds how long a variational session stays pinned with
	// no bind activity before it lapses (default 15m; negative disables
	// expiry). Expiry is lazy: sessions are swept on session-store
	// access, not by a background timer.
	SessionTTL time.Duration
	// MaxSessions bounds concurrently open variational sessions; opening
	// beyond it evicts the least-recently-used session (default 256;
	// negative removes the bound).
	MaxSessions int
	// Metrics is the registry the service registers its instruments in;
	// nil creates a private one (exposed via Service.Metrics and the
	// GET /metrics endpoint). A registry hosts at most one service —
	// sharing one across services panics on the duplicate families.
	Metrics *obs.Registry
	// TraceRing bounds how many job traces stay queryable via
	// GET /jobs/{id}/trace (default 1024; negative disables tracing).
	TraceRing int
	// Logger receives the service's structured logs — job lifecycle at
	// Info, per-request HTTP logs at Debug — every record keyed by
	// trace_id. Nil discards everything (library default; qservd passes
	// a real logger).
	Logger *slog.Logger
	// DisableMetrics skips instrument registration and all recording.
	// Only the obs-overhead benchmark should set it: with metrics
	// disabled GET /metrics serves no qserv families.
	DisableMetrics bool
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 4096
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = 2
	}
	if c.DefaultShots <= 0 {
		c.DefaultShots = 1024
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.PrefixCacheSize == 0 && c.CacheSize > 0 {
		c.PrefixCacheSize = 4 * c.CacheSize
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	return c
}

// backendPool couples a backend with its worker lane and its resolved
// instrument handles (nil when metrics are disabled).
type backendPool struct {
	b       Backend
	workers int
	ch      chan *Job
	met     *poolMetrics
}

// Service is the concurrent accelerator service: bounded per-backend job
// queues feeding worker pools, with a shared two-level compile cache
// (full artefacts + platform-generic prefix artefacts).
type Service struct {
	cfg    Config
	cache  *CompileCache
	prefix *PrefixCache
	env    *CompileEnv
	reg    *obs.Registry
	met    *serviceMetrics
	tracer *obs.Tracer
	log    *slog.Logger
	// programs memoises admission's cQASM parse (see resolve).
	programs *flightCache[parsedProgram]

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // completed job IDs, oldest first, for retention
	pools    []*backendPool
	byName   map[string]*backendPool
	started  bool
	stopped  bool
	// drained is created by the first Drain/Stop call and closed when all
	// workers have exited; later calls wait on the same channel.
	drained chan struct{}
	// sessions holds the open variational sessions (guarded by mu).
	sessions map[string]*Session

	wg sync.WaitGroup
	// seq numbers jobs and sessions alike; a job's derived seed depends
	// on its number.
	seq       atomic.Uint64
	startedAt time.Time
}

// New returns an unstarted service; register backends with AddBackend,
// then call Start.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		programs: newFlightCache[parsedProgram](programMemoSize),
		jobs:     map[string]*Job{},
		byName:   map[string]*backendPool{},
		sessions: map[string]*Session{},
	}
	if cfg.CacheSize > 0 {
		s.cache = NewCompileCache(cfg.CacheSize)
	}
	if cfg.PrefixCacheSize > 0 {
		s.prefix = NewPrefixCache(cfg.PrefixCacheSize)
	}
	s.env = &CompileEnv{Cache: s.cache, Prefix: s.prefix}
	s.reg = cfg.Metrics
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if !cfg.DisableMetrics {
		s.met = newServiceMetrics(s.reg)
		s.registerCollectors()
	}
	ring := cfg.TraceRing
	if ring == 0 {
		ring = 1024
	}
	if ring > 0 {
		s.tracer = obs.NewTracer(ring)
	}
	s.log = cfg.Logger
	if s.log == nil {
		// Discard logs entirely: a level above every slog level makes
		// Enabled fail before any record is built.
		s.log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{
			Level: slog.LevelError + 4,
		}))
	}
	return s
}

// registerCollectors wires the scrape-time mirrors: uptime, per-backend
// queue depth, the shared compile caches' hit/miss/entry counts and the
// garbage collector's state.
func (s *Service) registerCollectors() {
	s.reg.GaugeFunc("qserv_gc_heap_live_bytes",
		"Heap bytes the last garbage collection marked live (runtime/metrics /gc/heap/live:bytes).",
		runtimeMetric("/gc/heap/live:bytes"))
	s.reg.GaugeFunc("qserv_gc_cpu_seconds",
		"Estimated CPU seconds spent in garbage collection since the process started (runtime/metrics /cpu/classes/gc/total:cpu-seconds).",
		runtimeMetric("/cpu/classes/gc/total:cpu-seconds"))
	s.reg.GaugeFunc("qserv_uptime_seconds", "Seconds since Start.", func() float64 {
		s.mu.Lock()
		startedAt := s.startedAt
		s.mu.Unlock()
		if startedAt.IsZero() {
			return 0
		}
		return time.Since(startedAt).Seconds()
	})
	s.reg.GaugeFunc("qserv_sessions_active", "Open variational sessions.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.sweepSessionsLocked(time.Now())
		return float64(len(s.sessions))
	})
	s.reg.OnCollect(func() {
		s.mu.Lock()
		pools := make([]*backendPool, len(s.pools))
		copy(pools, s.pools)
		s.mu.Unlock()
		for _, p := range pools {
			if p.met != nil {
				p.met.queueDepth.Set(float64(len(p.ch)))
			}
		}
		mirror := func(level string, st CacheStats) {
			s.met.cacheOps.With(level, "hit").Set(float64(st.Hits))
			s.met.cacheOps.With(level, "miss").Set(float64(st.Misses))
			s.met.cacheEntries.With(level).Set(float64(st.Entries))
		}
		if s.cache != nil {
			mirror("full", s.cache.Stats())
		}
		if s.prefix != nil {
			mirror("prefix", s.prefix.Stats())
		}
	})
}

// runtimeMetric returns a reader of one runtime/metrics value, 0 when
// the runtime does not support it.
func runtimeMetric(name string) func() float64 {
	return func() float64 {
		sample := []metrics.Sample{{Name: name}}
		metrics.Read(sample)
		switch v := sample[0].Value; v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
}

// Metrics exposes the service's metric registry — the one behind
// GET /metrics.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// Tracer exposes the service's trace ring (nil when tracing is
// disabled).
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// Cache exposes the shared full-artefact compile cache (nil when
// disabled).
func (s *Service) Cache() *CompileCache { return s.cache }

// PrefixCache exposes the shared prefix-artefact cache (nil when
// disabled).
func (s *Service) PrefixCache() *PrefixCache { return s.prefix }

// AddBackend registers a backend with its worker-pool size (<= 0 selects
// Config.DefaultWorkers). It must be called before Start.
func (s *Service) AddBackend(b Backend, workers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("qserv: AddBackend after Start")
	}
	if _, dup := s.byName[b.Name()]; dup {
		panic(fmt.Sprintf("qserv: duplicate backend %q", b.Name()))
	}
	if workers <= 0 {
		workers = s.cfg.DefaultWorkers
	}
	// The channel is the backend's bounded job queue: workers pull from
	// it directly, Submit fails fast once it fills.
	p := &backendPool{
		b:       b,
		workers: workers,
		ch:      make(chan *Job, s.cfg.QueueSize),
		met:     s.met.pool(b.Name()),
	}
	s.pools = append(s.pools, p)
	s.byName[b.Name()] = p
}

// Start launches every worker pool.
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("qserv: Start called twice")
	}
	if len(s.pools) == 0 {
		panic("qserv: Start with no backends")
	}
	s.started = true
	s.startedAt = time.Now()
	for _, p := range s.pools {
		for i := 0; i < p.workers; i++ {
			s.wg.Add(1)
			go s.worker(p)
		}
	}
}

// Stop rejects further submissions, drains queued jobs to completion and
// waits for all workers to exit, however long that takes. Deadline-bound
// shutdown paths should prefer Drain.
func (s *Service) Stop() {
	_ = s.Drain(context.Background())
}

// Drain is the graceful-shutdown half of Stop: it immediately rejects
// further submissions (Submit returns ErrStopped), closes every pool's
// queue so workers finish the jobs already admitted, and waits for the
// workers to exit — but only as long as ctx allows. On deadline it
// returns ctx.Err() with workers still running; the drain keeps
// completing in the background, so a subsequent Drain (or Stop) call
// picks up the same wait. Draining a never-started service is a no-op;
// concurrent calls share one drain state.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil
	}
	if !s.stopped {
		s.stopped = true
		for _, p := range s.pools {
			close(p.ch)
		}
		s.drained = make(chan struct{})
		go func(done chan struct{}) {
			s.wg.Wait()
			close(done)
		}(s.drained)
	}
	done := s.drained
	s.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker executes jobs from one pool's lane.
func (s *Service) worker(p *backendPool) {
	defer s.wg.Done()
	for job := range p.ch {
		s.runJob(p, job)
	}
}

// runJob executes one job's plan, closing the job's trace spans at the
// exact job timestamps (so the root span's duration equals the reported
// latency and queue.wait + run partition it) and recording the pool's
// instruments before the job becomes observable as finished, so a
// caller that awaited the job reads a trace and metrics that include it.
func (s *Service) runJob(p *backendPool, job *Job) {
	job.markRunning()
	submitted, started, _ := job.Times()
	job.queueSpan.EndAt(started)
	root := job.trace.Root()
	runSpan := root.StartChildAt("run", started)
	env := s.env
	if runSpan != nil {
		// Hand the backend a per-job copy of the shared env carrying the
		// run span, so compile/execute phases attach under it.
		jobEnv := *s.env
		jobEnv.Span = runSpan
		env = &jobEnv
	}
	start := time.Now()
	res, hit, err := job.plan(job, env)
	finished := time.Now()
	busy := finished.Sub(start)
	status := StatusDone
	if err != nil {
		status = StatusFailed
	}
	runSpan.SetAttr("cache_hit", strconv.FormatBool(hit))
	runSpan.EndAt(finished)
	root.SetAttr("status", string(status))
	root.EndAt(finished)
	if m := p.met; m != nil {
		m.busy.Add(busy.Seconds())
		m.queueWait.ObserveSeconds(started.Sub(submitted).Nanoseconds())
		m.latency.ObserveSeconds(finished.Sub(submitted).Nanoseconds())
		if err != nil {
			m.failed.Inc()
		} else {
			m.done.Inc()
		}
		// A full-artefact hit skipped the whole pipeline; per-pass
		// metrics aggregate only over jobs that actually compiled, and
		// recordCompile counts prefix-level skips from the report.
		if hit {
			m.fullSkips.Inc()
		}
		if err == nil && res != nil && res.Report != nil {
			if !hit {
				m.recordCompile(res.Report.Compile)
			}
			// Execution always ran, cache hit or not.
			if ns := res.Report.ExecNs; ns > 0 {
				m.execSecs.ObserveSeconds(ns)
			}
			// The engine that actually ran the shots — auto dispatch
			// resolved, so the Clifford fast-path hit rate is visible.
			if eng := res.Report.Engine; eng != "" {
				m.m.engineDispatch.With(eng).Inc()
			}
		}
	}
	job.finish(res, hit, err, finished)
	retireStart := time.Now()
	s.retire(job)
	if s.met != nil {
		// Retention bookkeeping runs after the job is already observable
		// as finished, so it is timed as a metric rather than a trace
		// span — the root span's children must sum to the job latency.
		s.met.retireSecs.ObserveSeconds(time.Since(retireStart).Nanoseconds())
	}
	// slog boxes every argument before it checks the level, so the
	// per-job records are built only when Info is on.
	if !s.log.Enabled(context.Background(), slog.LevelInfo) {
		return
	}
	if err != nil {
		s.log.Info("job failed",
			"trace_id", job.TraceID(), "job", job.ID, "backend", p.b.Name(),
			"error", err.Error(), "elapsed_ms", float64(finished.Sub(submitted).Nanoseconds())/1e6)
	} else {
		s.log.Info("job done",
			"trace_id", job.TraceID(), "job", job.ID, "backend", p.b.Name(),
			"cache_hit", hit, "elapsed_ms", float64(finished.Sub(submitted).Nanoseconds())/1e6)
	}
}

// compileAndRun is the plan of a submitted job: the backend compiles
// (or cache-fetches) and executes the request.
func compileAndRun(job *Job, env *CompileEnv) (*Result, bool, error) {
	return job.pool.b.Run(&job.Req, job.seed, env)
}

// retire records a finished job for retention and evicts the oldest
// completed jobs beyond Config.RetainJobs (queued and running jobs are
// never evicted).
func (s *Service) retire(job *Job) {
	if s.cfg.RetainJobs < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, job.ID)
	for len(s.finished) > s.cfg.RetainJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Submit validates and routes a request, then admits it as a
// compile-and-run job (see admit). It never blocks: a full queue fails
// fast with ErrQueueFull.
func (s *Service) Submit(req Request) (*Job, error) {
	pool, err := s.resolve(&req)
	if err != nil {
		return nil, err
	}
	return s.admit(&Job{Req: req, pool: pool, seed: req.Seed})
}

// admit is the service's one admission path, shared by Submit and
// BindSession: it numbers the job, derives its seed, gives it its plan
// — bind-and-run for a session bind, compile-and-run otherwise — opens
// its trace, and enqueues it without blocking.
func (s *Service) admit(job *Job) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.acceptingLocked(); err != nil {
		return nil, err
	}
	var n uint64
	job.ID, n = s.nextID("job")
	if job.seed == 0 {
		// Derive a distinct deterministic seed per job from the base seed
		// and the job sequence number (odd multiplier keeps them unique).
		job.seed = s.cfg.Seed + int64(n)*2654435761
	}
	sess := job.sess
	job.plan = compileAndRun
	if sess != nil {
		job.plan = s.bindAndRun
	}
	job.status = StatusQueued
	job.done = make(chan struct{})
	job.submitted = time.Now()
	backend := job.pool.b.Name()
	if s.tracer != nil {
		// The trace ID is the job ID; the root span starts at the job's
		// submit instant so its duration matches the reported latency.
		job.trace = s.tracer.StartAt(job.ID, "job", job.submitted)
		root := job.trace.Root()
		root.SetAttr("backend", backend)
		if sess != nil {
			root.SetAttr("session", sess.ID)
		}
		if job.Req.Name != "" {
			root.SetAttr("name", job.Req.Name)
		}
		job.queueSpan = root.StartChildAt("queue.wait", job.submitted)
	}
	// Enqueue straight into the backend's bounded lane: no shared
	// dispatcher, so one saturated backend cannot head-of-line block the
	// others.
	select {
	case job.pool.ch <- job:
	default:
		return nil, ErrQueueFull
	}
	s.jobs[job.ID] = job
	if s.met != nil {
		s.met.jobsSubmitted.Inc()
	}
	if sess != nil {
		sess.mu.Lock()
		sess.lastUsed = job.submitted
		sess.binds++
		sess.mu.Unlock()
		if s.met != nil {
			s.met.bindsTotal.Inc()
		}
	}
	if s.log.Enabled(context.Background(), slog.LevelDebug) {
		s.log.Debug("job submitted",
			"trace_id", job.TraceID(), "job", job.ID, "backend", backend,
			"session", job.Session(), "name", job.Req.Name)
	}
	return job, nil
}

// nextID draws the next number from the sequence shared by jobs and
// sessions and renders it as "<prefix>-N".
func (s *Service) nextID(prefix string) (string, uint64) {
	n := s.seq.Add(1)
	return prefix + "-" + strconv.FormatUint(n, 10), n
}

// acceptingLocked reports why the service cannot take new work: not yet
// started, or stopped. The caller holds s.mu.
func (s *Service) acceptingLocked() error {
	if !s.started {
		return errors.New("qserv: service not started")
	}
	if s.stopped {
		return ErrStopped
	}
	return nil
}

// resolve validates a submit or session-open request, applies the
// default shot count and routes it to a backend pool, vetting any device
// override, the program's width and the pass spec against that backend.
// A cQASM payload is parsed, validated and flattened here, so a malformed
// program is refused at submit; the request leaves carrying the parsed
// program in place of its text, and a resubmitted text reuses its
// memoised parse.
func (s *Service) resolve(req *Request) (*backendPool, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	if req.CQASM != "" {
		name, text := req.Name, req.CQASM
		pp, _, err := s.programs.getOrCompute(programKey(name, text), func() (parsedProgram, error) {
			p, err := parseCQASM(name, text)
			if err != nil {
				return parsedProgram{}, err
			}
			return parsedProgram{prog: p, canon: canonicalText(p)}, nil
		})
		if err != nil {
			return nil, err
		}
		req.Program, req.canon, req.CQASM = pp.prog, pp.canon, ""
	}
	if req.Shots <= 0 {
		req.Shots = s.cfg.DefaultShots
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.acceptingLocked(); err != nil {
		return nil, err
	}
	pool, err := s.route(req)
	if err != nil {
		return nil, err
	}
	if err := validateDeviceOverrides(req, pool.b); err != nil {
		return nil, err
	}
	if err := checkStack(req, pool.b); err != nil {
		return nil, err
	}
	return pool, nil
}

// ErrUnknownBackend distinguishes lookups of unregistered backends
// (HTTP 404) from invalid inputs (HTTP 400).
var ErrUnknownBackend = errors.New("qserv: unknown backend")

// Recalibrate atomically replaces a backend's device calibration: jobs
// already running finish against the old tables, later jobs compile and
// execute against the new ones. The re-calibrated device hashes
// differently, so full-artefact cache entries built against the stale
// tables are never reused, while platform-generic prefix artefacts stay
// live (the prefix passes cannot observe calibration). Returns the
// re-calibrated device.
func (s *Service) Recalibrate(name string, cal *target.Calibration) (*target.Device, error) {
	s.mu.Lock()
	pool, ok := s.byName[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownBackend, name)
	}
	rc, can := pool.b.(Recalibrator)
	if !can {
		return nil, fmt.Errorf("qserv: backend %q does not support live recalibration", name)
	}
	dev, err := rc.Recalibrate(cal)
	if err != nil {
		return nil, err
	}
	if pool.met != nil {
		pool.met.calibReloads.Inc()
	}
	s.log.Info("calibration reloaded", "backend", name, "device_hash", dev.Hash())
	return dev, nil
}

// validateDeviceOverrides checks a request's device target / calibration
// override against the backend it routed to, so invalid overrides are
// rejected at submit time (HTTP 400) instead of failing the job later.
// Request.validate has already vetted the target device itself; what is
// left is backend compatibility: only gate backends take overrides, and
// a bare calibration override needs a calibrated backend device to
// overlay (or an explicit target).
func validateDeviceOverrides(req *Request, b Backend) error {
	if req.Target == nil && req.Calibration == nil {
		return nil
	}
	dp, ok := b.(DeviceProvider)
	if !ok {
		return fmt.Errorf("qserv: backend %q takes no device target or calibration override", b.Name())
	}
	if req.Target == nil && req.Calibration != nil {
		dev := dp.Device()
		if dev.Calibration == nil {
			return fmt.Errorf("qserv: backend %q is uncalibrated; submit a full \"target\" to calibrate it", b.Name())
		}
		if err := dev.WithCalibration(req.Calibration).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// route resolves the request's target pool: by name when given, else the
// first registered backend that accepts the payload.
func (s *Service) route(req *Request) (*backendPool, error) {
	if req.Backend != "" {
		pool, ok := s.byName[req.Backend]
		if !ok {
			return nil, fmt.Errorf("qserv: unknown backend %q", req.Backend)
		}
		if !pool.b.Accepts(req) {
			return nil, fmt.Errorf("qserv: backend %q does not accept this payload", req.Backend)
		}
		return pool, nil
	}
	for _, pool := range s.pools {
		if pool.b.Accepts(req) {
			return pool, nil
		}
	}
	return nil, errors.New("qserv: no backend accepts this payload")
}

// Job looks up a job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// BackendView is one backend's slice of the GET /backends report: its
// identity and — for gate backends — the full device description behind
// it, calibration included, plus the device content hash clients can use
// to detect re-calibrations.
type BackendView struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"` // "gate" or "accelerator"
	Workers int    `json:"workers"`
	// Device is the hardware target behind a gate backend (topology as
	// an explicit edge list, native gates, timings, calibration).
	Device *target.Device `json:"device,omitempty"`
	// DeviceHash is the device's stable content hash; it changes
	// whenever the device — including its calibration — changes.
	DeviceHash string `json:"device_hash,omitempty"`
}

// Backends describes every registered backend, exposing gate backends'
// devices and calibration data — the discovery half of the target API.
func (s *Service) Backends() []BackendView {
	s.mu.Lock()
	pools := make([]*backendPool, len(s.pools))
	copy(pools, s.pools)
	s.mu.Unlock()
	out := make([]BackendView, 0, len(pools))
	for _, p := range pools {
		bv := BackendView{Name: p.b.Name(), Kind: "accelerator", Workers: p.workers}
		if dp, ok := p.b.(DeviceProvider); ok {
			bv.Kind = "gate"
			bv.Device = dp.Device()
			bv.DeviceHash = bv.Device.Hash()
		}
		out = append(out, bv)
	}
	return out
}
