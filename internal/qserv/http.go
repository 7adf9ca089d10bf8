package qserv

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/qubo"
	"repro/internal/qx"
	"repro/internal/target"
)

// SubmitRequest is the JSON body of POST /submit and POST /sessions.
// Exactly one of CQASM or QUBO must be set; a session takes only CQASM (a
// parameterised program with $name parameters), every bind executes
// against its Target and Calibration overrides, and its Shots is the
// default per-bind shot count.
type SubmitRequest struct {
	Name    string    `json:"name,omitempty"`
	CQASM   string    `json:"cqasm,omitempty"`
	QUBO    *QUBOJSON `json:"qubo,omitempty"`
	Backend string    `json:"backend,omitempty"`
	// Passes is a comma-separated compiler pass spec for this job, with
	// optional per-pass options (e.g. "decompose,optimize,
	// map(lookahead=8,strategy=noise),lower-swaps,schedule,assemble");
	// empty uses the backend's configured pipeline. Malformed specs,
	// unknown pass names, invalid options and specs missing a stage the
	// target executes (schedule; assemble after it on realistic stacks)
	// are rejected at submit time with 400.
	Passes string `json:"passes,omitempty"`
	// Target is a full device description in the device-JSON schema (see
	// GET /backends or examples/devices/) replacing the backend's device
	// for this job. Invalid devices are rejected with 400.
	Target json.RawMessage `json:"target,omitempty"`
	// Calibration overrides the calibration table of the job's device
	// (the target when given, the backend's device otherwise). Invalid
	// tables — wrong qubit count, non-coupler edges, out-of-range error
	// rates — are rejected with 400.
	Calibration *target.Calibration `json:"calibration,omitempty"`
	Shots       int                 `json:"shots,omitempty"`
	Seed        int64               `json:"seed,omitempty"`
}

// QUBOJSON is the wire form of a QUBO: n variables plus sparse
// upper-triangular terms (diagonal terms are the linear coefficients).
type QUBOJSON struct {
	N     int        `json:"n"`
	Terms []QUBOTerm `json:"terms"`
}

// QUBOTerm is one coefficient of the quadratic form.
type QUBOTerm struct {
	I int     `json:"i"`
	J int     `json:"j"`
	V float64 `json:"v"`
}

func (q *QUBOJSON) toQUBO() (*qubo.QUBO, error) {
	if q.N <= 0 {
		return nil, fmt.Errorf("qserv: qubo.n must be positive, got %d", q.N)
	}
	out := qubo.New(q.N)
	for _, t := range q.Terms {
		if t.I < 0 || t.I >= q.N || t.J < 0 || t.J >= q.N {
			return nil, fmt.Errorf("qserv: qubo term (%d,%d) out of range for n=%d", t.I, t.J, q.N)
		}
		out.Add(t.I, t.J, t.V)
	}
	return out, nil
}

// SubmitResponse is the JSON body returned by POST /submit.
type SubmitResponse struct {
	ID      string `json:"id"`
	Status  Status `json:"status"`
	Backend string `json:"backend"`
}

// JobView is the JSON rendering of a job for GET /jobs/{id}.
type JobView struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// TraceID names the job's span tree, served by GET /jobs/{id}/trace
	// (empty when tracing is disabled). It equals the job ID.
	TraceID  string `json:"trace_id,omitempty"`
	Status   Status `json:"status"`
	Backend  string `json:"backend"`
	CacheHit bool   `json:"cache_hit"`
	// Session names the variational session a bind sub-job ran against.
	Session string `json:"session,omitempty"`
	Passes  string `json:"passes,omitempty"`
	// Device names the per-job target device override, when one was
	// submitted; Recalibrated marks a per-job calibration override.
	Device       string     `json:"device,omitempty"`
	Recalibrated bool       `json:"recalibrated,omitempty"`
	Error        string     `json:"error,omitempty"`
	SubmittedAt  time.Time  `json:"submitted_at"`
	StartedAt    *time.Time `json:"started_at,omitempty"`
	FinishedAt   *time.Time `json:"finished_at,omitempty"`
	ElapsedMs    float64    `json:"elapsed_ms,omitempty"`
	// Engine names the qx engine that executed the job's shots: the
	// auto engine's dispatch target (stabilizer for Clifford circuits
	// under tableau-compatible noise, optimized otherwise). The compile
	// pipeline's per-pass account is not part of the view: the job's
	// trace (GET /jobs/{id}/trace) carries one span per kernel and per
	// pass, and /metrics aggregates pass times in
	// qserv_compile_pass_seconds.
	Engine string      `json:"engine,omitempty"`
	Result *ResultView `json:"result,omitempty"`
}

// ResultView is the JSON rendering of a job result.
type ResultView struct {
	// Gate jobs: measurement statistics plus the modelled wall time.
	Counts map[string]int `json:"counts,omitempty"`
	Shots  int            `json:"shots,omitempty"`
	WallNs int            `json:"wall_ns,omitempty"`
	Swaps  int            `json:"added_swaps,omitempty"`
	// Annealing jobs: solution bits and energy.
	Bits   []int    `json:"bits,omitempty"`
	Energy *float64 `json:"energy,omitempty"`
}

func viewJob(j *Job) JobView {
	submitted, started, finished := j.Times()
	v := JobView{
		ID:           j.ID,
		Name:         j.Req.Name,
		TraceID:      j.TraceID(),
		Status:       j.Status(),
		Backend:      j.Backend(),
		CacheHit:     j.CacheHit(),
		Session:      j.Session(),
		Passes:       j.Req.Passes,
		Recalibrated: j.Req.Calibration != nil,
		SubmittedAt:  submitted,
	}
	if j.Req.Target != nil {
		v.Device = j.Req.Target.Name
	}
	if !started.IsZero() {
		v.StartedAt = &started
	}
	if !finished.IsZero() {
		v.FinishedAt = &finished
		v.ElapsedMs = float64(finished.Sub(submitted).Nanoseconds()) / 1e6
	}
	if err := j.Err(); err != nil {
		v.Error = err.Error()
	}
	if res := j.Result(); res != nil {
		rv := &ResultView{}
		if res.Report != nil {
			v.Engine = res.Report.Engine
		}
		if res.Report != nil && res.Report.Result != nil {
			r := res.Report.Result
			rv.Counts = make(map[string]int, len(r.Counts)+len(r.WideCounts))
			//qlint:nondeterministic-ok order-independent: key-preserving copy into a map; encoding/json sorts keys on render
			for idx, c := range r.Counts {
				rv.Counts[qx.BitString(idx, r.NumQubits)] = c
			}
			// Wide registers (>63 qubits, stabilizer engine) already key
			// by bitstring.
			//qlint:nondeterministic-ok order-independent: key-preserving copy into a map; encoding/json sorts keys on render
			for bits, c := range r.WideCounts {
				rv.Counts[bits] = c
			}
			rv.Shots = r.Shots
			rv.WallNs = res.Report.WallNs
			if res.Report.Mapping != nil {
				rv.Swaps = res.Report.Mapping.AddedSwaps
			}
		}
		if res.Anneal != nil {
			rv.Bits = res.Anneal.Bits
			e := res.Anneal.Energy
			rv.Energy = &e
		}
		v.Result = rv
	}
	return v
}

// Handler returns the service's HTTP API:
//
//	POST /submit        submit a job (202, or 503 when the queue is full);
//	                    the response carries the job's trace ID in the
//	                    X-Trace-Id header
//	POST /sessions      open a variational session: eagerly compile a
//	                    parameterised program (cQASM with $name angles)
//	                    and pin the artefact for streaming binds (201)
//	POST /sessions/{id}/bind
//	                    bind the session's parameters and execute as a
//	                    sub-job (202, 404 unknown session, 503 full
//	                    queue); the bind replaces the compile phase with
//	                    an O(#symbols) artefact patch
//	GET  /sessions      open sessions
//	GET  /sessions/{id} one session: symbols, bind count, expiry
//	DELETE /sessions/{id}
//	                    close a session (in-flight binds finish)
//	GET  /jobs/{id}     job status and result; ?wait=2s long-polls
//	GET  /jobs/{id}/trace
//	                    the job's span tree: queue wait, compile (cache
//	                    level, per-kernel prefix, per-pass suffix),
//	                    execution (engine + shot batches) — durations in
//	                    nanoseconds, the root span spanning submit to
//	                    finish exactly
//	PUT  /backends/{name}/calibration
//	                    live re-calibration: replace the backend device's
//	                    calibration table (400 invalid, 404 unknown)
//	GET  /backends      registered backends with device + calibration data
//	GET  /metrics       Prometheus text-format exposition of every qserv
//	                    metric (jobs, latency histograms, cache levels,
//	                    compile passes, HTTP traffic)
//	GET  /healthz       liveness probe
//
// Every request passes through the instrumentation middleware:
// per-route counters/latency histograms and a Debug-level access log.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /submit", s.handleSubmit)
	mux.HandleFunc("POST /sessions", s.handleOpenSession)
	mux.HandleFunc("GET /sessions", s.handleSessions)
	mux.HandleFunc("GET /sessions/{id}", s.handleSession)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleCloseSession)
	mux.HandleFunc("POST /sessions/{id}/bind", s.handleBind)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("PUT /backends/{name}/calibration", s.handleCalibration)
	mux.HandleFunc("GET /backends", s.handleBackends)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s.instrument(mux)
}

// statusRecorder captures the response code for the request metrics and
// access log.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps the API mux with request metrics (labelled by the
// matched route pattern, so path parameters don't explode cardinality)
// and structured request logging.
func (s *Service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		pattern := r.Pattern
		if pattern == "" {
			pattern = "unmatched"
		}
		elapsed := time.Since(start)
		if s.met != nil {
			s.met.httpRequests.With(r.Method, pattern, strconv.Itoa(rec.code)).Inc()
			s.met.httpSecs.With(pattern).ObserveSeconds(elapsed.Nanoseconds())
		}
		if s.log.Enabled(r.Context(), slog.LevelDebug) {
			s.log.Debug("http request",
				"method", r.Method, "path", r.URL.Path, "pattern", pattern,
				"status", rec.code, "duration_ms", float64(elapsed.Nanoseconds())/1e6)
		}
	})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sr SubmitRequest
	if !decodeJSON(w, r, &sr) {
		return
	}
	req, err := sr.request()
	var job *Job
	if err == nil {
		job, err = s.Submit(req)
	}
	writeAdmitted(w, job, err)
}

// request converts the wire form into a Request, parsing the device
// target and the QUBO; POST /sessions converts through it too.
func (sr SubmitRequest) request() (Request, error) {
	req := Request{
		Name:        sr.Name,
		CQASM:       sr.CQASM,
		Backend:     sr.Backend,
		Passes:      sr.Passes,
		Calibration: sr.Calibration,
		Shots:       sr.Shots,
		Seed:        sr.Seed,
	}
	if len(sr.Target) > 0 {
		dev, err := target.Parse(sr.Target)
		if err != nil {
			return Request{}, err
		}
		req.Target = dev
	}
	if sr.QUBO != nil {
		q, err := sr.QUBO.toQUBO()
		if err != nil {
			return Request{}, err
		}
		req.QUBO = q
	}
	return req, nil
}

// decodeJSON decodes a request body into v, answering 400 on malformed
// JSON.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad json: %w", err))
		return false
	}
	return true
}

// writeAdmitError maps an admission error — from POST /submit,
// POST /sessions or POST /sessions/{id}/bind — to its status: 404 for an
// unknown session, 503 for a full queue (with Retry-After) or a stopped
// service, 400 for everything else.
func writeAdmitError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrUnknownSession):
		code = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrStopped):
		code = http.StatusServiceUnavailable
	}
	writeError(w, code, err)
}

// writeAdmitted answers an admitted job with 202 and its trace ID, or
// the admission error's status.
func writeAdmitted(w http.ResponseWriter, job *Job, err error) {
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	if id := job.TraceID(); id != "" {
		w.Header().Set("X-Trace-Id", id)
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:      job.ID,
		Status:  job.Status(),
		Backend: job.Backend(),
	})
}

// handleJobTrace serves the job's span tree. 404 covers unknown jobs,
// disabled tracing and traces evicted from the bounded ring.
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	tr, ok := s.tracer.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace for job %q (tracing disabled or trace evicted)", id))
		return
	}
	writeJSON(w, http.StatusOK, tr.View())
}

// handleCalibration applies a live calibration reload to a backend:
// the request body is a calibration table in the device-JSON schema.
func (s *Service) handleCalibration(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var cal target.Calibration
	if !decodeJSON(w, r, &cal) {
		return
	}
	dev, err := s.Recalibrate(name, &cal)
	switch {
	case errors.Is(err, ErrUnknownBackend):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"backend":     name,
		"device_hash": dev.Hash(),
	})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait duration %q", waitStr))
			return
		}
		select {
		case <-job.Done():
		case <-time.After(d):
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, viewJob(job))
}

func (s *Service) handleBackends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]BackendView{"backends": s.Backends()})
}

// writeJSON answers with v as compact JSON, one line.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
