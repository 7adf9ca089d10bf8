package qserv

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/openql"
	"repro/internal/qubo"
	"repro/internal/target"
)

// Status is the lifecycle state of a job.
type Status string

// Job lifecycle states.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Request describes one unit of work submitted to the service. Exactly one
// payload field — CQASM, Program or QUBO — must be set.
type Request struct {
	// Name labels the job in views and logs; optional.
	Name string
	// CQASM is gate-job source text. Admission (Submit, OpenSession)
	// parses and validates it and replaces it with the lifted Program;
	// resubmitting a text under the same Name reuses one memoised
	// program.
	CQASM string
	// Program is a gate job submitted programmatically, or the program
	// admission lifted from CQASM. Either way the service only reads it.
	Program *openql.Program
	// stack and key are what admission (Service.resolve) decided a gate
	// job runs on: the routed backend's stack with the job's overrides
	// applied, and the job's full-artefact cache key ("" when the
	// service caches nothing). The worker compiles and runs on them and
	// never resolves again, so a recalibration after admission does not
	// change the job's target.
	stack *core.Stack
	key   string
	// QUBO is an annealing job.
	QUBO *qubo.QUBO
	// Backend names the target backend; empty routes to the first backend
	// that accepts the payload.
	Backend string
	// Passes is a comma-separated compiler pass spec for this job's gate
	// compilation, with optional per-pass options (e.g. "decompose,
	// map(lookahead=8,strategy=noise),lower-swaps,schedule,assemble");
	// empty uses the backend stack's configured pipeline. Part of the
	// compile-cache key, so jobs with different pipelines never share a
	// compiled artefact. Ignored by annealing backends.
	Passes string
	// Target replaces the backend's device for this job: compilation,
	// noise-aware mapping and execution-mode selection all run against
	// this device description, and its content hash keys the compile
	// cache. Only gate backends accept targets; invalid devices are
	// rejected at submit time.
	Target *target.Device
	// Calibration overrides the calibration table of the job's device
	// (the Target when set, the backend's device otherwise) — how a
	// client compiles against fresher calibration data than the service
	// was started with. The re-calibrated device hashes differently, so
	// the job never reuses compile-cache entries built against the stale
	// table. Requires a calibrated gate backend or an explicit Target;
	// invalid tables are rejected at submit time.
	Calibration *target.Calibration
	// Shots is the number of executions aggregated into the result
	// (gate jobs); defaults to the service's DefaultShots.
	Shots int
	// Seed pins the job's random seed; 0 derives a fresh deterministic
	// seed per job.
	Seed int64
}

// validate checks that exactly one payload is present and that device
// overrides come with a gate payload; Service.resolve vets the rest.
func (r *Request) validate() error {
	n := 0
	if r.CQASM != "" {
		n++
	}
	if r.Program != nil {
		n++
	}
	if r.QUBO != nil {
		n++
	}
	if n != 1 {
		return fmt.Errorf("qserv: request must carry exactly one of cqasm, program or qubo (got %d)", n)
	}
	if (r.Target != nil || r.Calibration != nil) && r.QUBO != nil {
		return errors.New("qserv: device targets and calibration overrides apply to gate jobs only")
	}
	return nil
}

// Result is the union of backend outputs: gate jobs produce a full-stack
// Report, annealing jobs (and the classical QUBO fallback) an anneal
// Result.
type Result struct {
	Report *core.Report
	Anneal *anneal.Result
}

// Job is one tracked unit of work. All accessors are safe for concurrent
// use; the service mutates the job from exactly one worker at a time.
type Job struct {
	ID  string
	Req Request

	pool *backendPool // resolved before admission
	seed int64

	// sess and bindVals mark a session bind sub-job: the pinned session
	// and the values its plan binds. plan is the one function the worker
	// calls — compile-and-run, or bind-and-run for a bind sub-job (see
	// Service.admit). All three are set before the job is enqueued and
	// never reassigned.
	sess     *Session
	bindVals map[string]float64
	plan     func(job *Job, env *CompileEnv) (res *Result, hit bool, err error)

	// trace is the job's span tree (nil when tracing is disabled); the
	// trace ID is the job ID. queueSpan covers submit-to-start and is
	// ended by the worker when the job leaves the queue. Both are set
	// before the job is enqueued and never reassigned, so workers read
	// them without the job mutex.
	trace     *obs.Trace
	queueSpan *obs.Span

	mu        sync.Mutex
	status    Status
	err       error
	result    *Result
	cacheHit  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{}
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err returns the failure cause, nil unless Status is StatusFailed.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the job's output, nil until Status is StatusDone.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// CacheHit reports whether the job's compile step was served from the
// compiled-circuit cache.
func (j *Job) CacheHit() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheHit
}

// Backend returns the name of the backend the job was routed to.
func (j *Job) Backend() string { return j.pool.b.Name() }

// Session returns the ID of the session a bind sub-job ran against
// ("" for ordinary jobs).
func (j *Job) Session() string {
	if j.sess == nil {
		return ""
	}
	return j.sess.ID
}

// Trace returns the job's span tree (nil when tracing is disabled).
func (j *Job) Trace() *obs.Trace { return j.trace }

// TraceID returns the job's trace ID ("" when tracing is disabled).
func (j *Job) TraceID() string { return j.trace.ID() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes or ctx is cancelled, returning the
// job's error (nil on success) or the context's error.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Times returns the submit/start/finish instants (zero until reached).
func (j *Job) Times() (submitted, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submitted, j.started, j.finished
}

func (j *Job) markRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
}

func (j *Job) finish(res *Result, cacheHit bool, err error, at time.Time) {
	j.mu.Lock()
	j.finished = at
	j.cacheHit = cacheHit
	if err != nil {
		j.status = StatusFailed
		j.err = err
	} else {
		j.status = StatusDone
		j.result = res
	}
	j.mu.Unlock()
	close(j.done)
}
