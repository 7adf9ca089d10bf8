package qserv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/target"
)

// scrape fetches GET /metrics from the service's handler and returns
// the parsed samples.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	m, err := obs.ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scrapeURL is scrape over a live HTTP server.
func scrapeURL(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// metricValue returns the sample of the exactly named series.
func metricValue(t *testing.T, m map[string]float64, series string) float64 {
	t.Helper()
	v, ok := m[series]
	if !ok {
		t.Fatalf("metric %s not found in exposition", series)
	}
	return v
}

// The /metrics exposition covers the acceptance surface: queue depth,
// per-backend job counters and latency histograms, both compile-cache
// levels, per-pass compile timings, and (on a second scrape) the HTTP
// request metrics recorded for the first.
func TestMetricsEndpoint(t *testing.T) {
	s := twoBackendService(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ { // one cold compile, two full-artefact hits
		j, err := s.Submit(Request{Program: bellProgram("bell"), Backend: "perfect", Shots: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	runtime.GC() // so the live-heap gauge has a collection to report
	body := scrape(t, h)

	if got := metricValue(t, body, "qserv_jobs_submitted_total"); got != 3 {
		t.Errorf("jobs_submitted_total = %g, want 3", got)
	}
	if got := metricValue(t, body, `qserv_jobs_completed_total{backend="perfect",status="done"}`); got != 3 {
		t.Errorf("jobs_completed done = %g, want 3", got)
	}
	if got := metricValue(t, body, `qserv_job_latency_seconds_count{backend="perfect"}`); got != 3 {
		t.Errorf("latency count = %g, want 3", got)
	}
	if got := metricValue(t, body, `qserv_job_latency_seconds_bucket{backend="perfect",le="+Inf"}`); got != 3 {
		t.Errorf("latency +Inf bucket = %g, want 3", got)
	}
	if got := metricValue(t, body, `qserv_job_queue_wait_seconds_count{backend="perfect"}`); got != 3 {
		t.Errorf("queue wait count = %g, want 3", got)
	}
	if got := metricValue(t, body, `qserv_queue_depth{backend="perfect"}`); got != 0 {
		t.Errorf("queue depth = %g, want 0 after drain", got)
	}
	if got := metricValue(t, body, `qserv_compile_cache_ops_total{level="full",op="hit"}`); got != 2 {
		t.Errorf("full-level cache hits = %g, want 2", got)
	}
	if got := metricValue(t, body, `qserv_compile_cache_ops_total{level="full",op="miss"}`); got != 1 {
		t.Errorf("full-level cache misses = %g, want 1", got)
	}
	metricValue(t, body, `qserv_compile_cache_ops_total{level="prefix",op="hit"}`)
	metricValue(t, body, `qserv_compile_cache_ops_total{level="prefix",op="miss"}`)
	if got := metricValue(t, body, `qserv_compile_cache_entries{level="full"}`); got != 1 {
		t.Errorf("full-level cache entries = %g, want 1", got)
	}
	if got := metricValue(t, body, `qserv_compile_cache_skips_total{backend="perfect",level="full"}`); got != 2 {
		t.Errorf("full-level skips = %g, want 2", got)
	}
	if got := metricValue(t, body, `qserv_compile_pass_runs_total{backend="perfect",pass="decompose"}`); got != 1 {
		t.Errorf("decompose runs = %g, want 1 (cache hits must not re-count passes)", got)
	}
	if got := metricValue(t, body, `qserv_compile_pass_seconds_count{backend="perfect",pass="decompose"}`); got != 1 {
		t.Errorf("decompose histogram count = %g, want 1", got)
	}
	if got := metricValue(t, body, `qserv_compile_seconds_count{backend="perfect"}`); got != 1 {
		t.Errorf("compile count = %g, want 1", got)
	}
	if got := metricValue(t, body, `qserv_execute_seconds_count{backend="perfect"}`); got != 3 {
		t.Errorf("execute count = %g, want 3", got)
	}
	if metricValue(t, body, "qserv_uptime_seconds") <= 0 {
		t.Error("uptime not positive")
	}
	if metricValue(t, body, "qserv_gc_heap_live_bytes") <= 0 {
		t.Error("live heap not positive")
	}
	if metricValue(t, body, "qserv_gc_cpu_seconds") < 0 {
		t.Error("GC CPU seconds negative")
	}

	// The scrape above went through the instrumentation middleware; its
	// metrics land after the response is written, so a second scrape
	// sees them.
	body2 := scrape(t, h)
	if got := metricValue(t, body2, `qserv_http_requests_total{method="GET",path="GET /metrics",code="200"}`); got < 1 {
		t.Errorf("http_requests_total for /metrics = %g, want >= 1", got)
	}
	if got := metricValue(t, body2, `qserv_http_request_duration_seconds_count{path="GET /metrics"}`); got < 1 {
		t.Errorf("http duration count = %g, want >= 1", got)
	}
}

// The service's statistics live in the registry: the skip accounting
// on /metrics must explain the pass-run deficit, so for every pass
// runs == jobs done − full-level skips.
func TestStatsMirrorsRegistry(t *testing.T) {
	s := twoBackendService(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		j, err := s.Submit(Request{Program: bellProgram("bell"), Backend: "perfect", Shots: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	m := scrape(t, s.Handler())
	done := metricValue(t, m, `qserv_jobs_completed_total{backend="perfect",status="done"}`)
	skips := metricValue(t, m, `qserv_compile_cache_skips_total{backend="perfect",level="full"}`)
	hits := metricValue(t, m, `qserv_compile_cache_ops_total{level="full",op="hit"}`)
	if done != 3 || skips != 2 {
		t.Fatalf("done=%g full skips=%g, want 3/2", done, skips)
	}
	if skips != hits {
		t.Errorf("full skips = %g, want %g (== full-level cache hits)", skips, hits)
	}
	for _, pass := range []string{"decompose", "optimize", "map", "lower-swaps", "optimize-lowered", "schedule", "assemble"} {
		if runs := metricValue(t, m, `qserv_compile_pass_runs_total{backend="perfect",pass="`+pass+`"}`); runs != done-skips {
			t.Errorf("pass %s runs = %g, want done − skips = %g", pass, runs, done-skips)
		}
	}
}

// The span tree served by GET /jobs/{id}/trace partitions the job's
// reported latency exactly: root = queue.wait + run, and the run span
// carries compile/execute children with synthesized pass detail.
func TestJobTraceEndpoint(t *testing.T) {
	s := twoBackendService(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := s.Submit(Request{Program: bellProgram("bell"), Backend: "perfect", Shots: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+j.ID+"/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", rec.Code, rec.Body.String())
	}
	var tv obs.TraceView
	if err := json.Unmarshal(rec.Body.Bytes(), &tv); err != nil {
		t.Fatal(err)
	}
	if tv.TraceID != j.ID {
		t.Errorf("trace_id = %q, want %q", tv.TraceID, j.ID)
	}
	root := tv.Root
	if root == nil || root.Name != "job" || root.InFlight {
		t.Fatalf("bad root span: %+v", root)
	}
	submitted, _, finished := j.Times()
	if want := finished.Sub(submitted).Nanoseconds(); root.DurationNs != want {
		t.Errorf("root duration = %d ns, want %d (the job's reported latency)", root.DurationNs, want)
	}
	if len(root.Children) != 2 || root.Children[0].Name != "queue.wait" || root.Children[1].Name != "run" {
		t.Fatalf("root children = %+v, want [queue.wait run]", root.Children)
	}
	if sum := root.Children[0].DurationNs + root.Children[1].DurationNs; sum != root.DurationNs {
		t.Errorf("queue.wait + run = %d ns, want %d (exact partition of the root)", sum, root.DurationNs)
	}
	run := root.Children[1]
	if run.Attrs["cache_hit"] != "false" {
		t.Errorf("run attrs = %v, want cache_hit=false", run.Attrs)
	}
	var compile, execute *obs.SpanView
	for _, c := range run.Children {
		switch c.Name {
		case "compile":
			compile = c
		case "execute":
			execute = c
		}
	}
	if compile == nil || execute == nil {
		t.Fatalf("run children = %+v, want compile and execute", run.Children)
	}
	if compile.Attrs["cache"] != "miss" {
		t.Errorf("cold compile cache attr = %q, want miss", compile.Attrs["cache"])
	}
	var passes, kernels int
	for _, c := range compile.Children {
		if strings.HasPrefix(c.Name, "pass:") {
			passes++
		}
		if strings.HasPrefix(c.Name, "kernel:") {
			kernels++
		}
	}
	if passes == 0 && kernels == 0 {
		t.Error("cold compile span has no synthesized pass/kernel children")
	}
	if execute.Attrs["shots"] != "16" {
		t.Errorf("execute shots attr = %q, want 16", execute.Attrs["shots"])
	}

	// The JobView carries the trace ID; unknown jobs 404.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+j.ID, nil))
	var jv JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &jv); err != nil {
		t.Fatal(err)
	}
	if jv.TraceID != j.ID {
		t.Errorf("JobView trace_id = %q, want %q", jv.TraceID, j.ID)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/nope/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("trace of unknown job = %d, want 404", rec.Code)
	}
}

// POST /submit tags the response with the job's trace ID.
func TestSubmitTraceHeader(t *testing.T) {
	s := twoBackendService(t, Config{})
	h := s.Handler()
	body, _ := json.Marshal(SubmitRequest{CQASM: bellCQASM, Backend: "perfect", Shots: 8})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/submit", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	var sr SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if got := rec.Header().Get("X-Trace-Id"); got != sr.ID {
		t.Errorf("X-Trace-Id = %q, want job ID %q", got, sr.ID)
	}
}

// Live recalibration: PUT /backends/{name}/calibration swaps the
// backend device's calibration table atomically, rotates the device
// hash (so stale full-artefact cache entries are never reused), bumps
// the reload counter, and rejects invalid tables, unsupported backends
// and unknown names with the right statuses.
func TestRecalibrationEndpoint(t *testing.T) {
	s := New(Config{})
	s.AddBackend(NewStackBackend(core.NewSuperconducting(21)), 2)
	s.AddBackend(NewClassicalFallback("classical", 8), 1)
	s.Start()
	t.Cleanup(s.Stop)
	h := s.Handler()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	runBell := func() *Job {
		t.Helper()
		j, err := s.Submit(Request{CQASM: bellCQASM, Backend: "superconducting", Shots: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return j
	}
	runBell()
	if j := runBell(); !j.CacheHit() {
		t.Fatal("second identical submit should hit the compile cache")
	}

	hashBefore := s.Backends()[0].DeviceHash
	cal := target.Superconducting().Calibration.Clone()
	cal.SetEdgeError(0, 9, 0.09)
	body, _ := json.Marshal(cal)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("PUT", "/backends/superconducting/calibration", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("recalibrate = %d: %s", rec.Code, rec.Body.String())
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	hashAfter := s.Backends()[0].DeviceHash
	if hashAfter == hashBefore {
		t.Error("device hash did not rotate after recalibration")
	}
	if out["device_hash"] != hashAfter {
		t.Errorf("response hash %q != /backends hash %q", out["device_hash"], hashAfter)
	}

	// The same program now compiles against the new device: a cache
	// miss, not a stale reuse.
	if j := runBell(); j.CacheHit() {
		t.Error("job after recalibration reused a stale compile artefact")
	}
	if j := runBell(); !j.CacheHit() {
		t.Error("second job after recalibration should hit the fresh entry")
	}

	if got := metricValue(t, scrape(t, h), `qserv_calibration_reloads_total{backend="superconducting"}`); got != 1 {
		t.Errorf("calibration_reloads_total = %g, want 1", got)
	}

	// Invalid table: wrong qubit count.
	short, _ := json.Marshal(&target.Calibration{Qubits: make([]target.QubitCalibration, 3)})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("PUT", "/backends/superconducting/calibration", bytes.NewReader(short)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("invalid calibration = %d, want 400", rec.Code)
	}
	// Accelerator backends don't recalibrate.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("PUT", "/backends/classical/calibration", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("recalibrating an accelerator = %d, want 400", rec.Code)
	}
	// Unknown backends 404.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("PUT", "/backends/nope/calibration", bytes.NewReader(body)))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown backend = %d, want 404", rec.Code)
	}
}

// DisableMetrics + TraceRing < 0 turn the whole observability layer
// off: jobs still run, /metrics serves an (empty) exposition and traces
// 404.
func TestObservabilityDisabled(t *testing.T) {
	s := New(Config{DisableMetrics: true, TraceRing: -1})
	s.AddBackend(NewStackBackend(core.NewPerfect(5, 7)), 2)
	s.Start()
	t.Cleanup(s.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := s.Submit(Request{Program: bellProgram("bell"), Backend: "perfect", Shots: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if j.TraceID() != "" {
		t.Error("trace ID assigned with tracing disabled")
	}
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET /metrics = %d with metrics disabled", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "qserv_") {
		t.Error("disabled registry still exposes qserv families")
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+j.ID+"/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("trace with tracing disabled = %d, want 404", rec.Code)
	}
}

// Recalibrate is safe under concurrent submits: the CAS swap never
// loses an update and in-flight jobs finish against a coherent stack.
func TestConcurrentRecalibration(t *testing.T) {
	s := New(Config{QueueSize: 256})
	s.AddBackend(NewStackBackend(core.NewSuperconducting(21)), 4)
	s.Start()
	t.Cleanup(s.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			cal := target.Superconducting().Calibration.Clone()
			cal.SetEdgeError(0, 9, 0.01+float64(i)*0.01)
			if _, err := s.Recalibrate("superconducting", cal); err != nil {
				t.Errorf("recalibrate %d: %v", i, err)
				return
			}
		}
	}()
	var jobs []*Job
	for i := 0; i < 16; i++ {
		j, err := s.Submit(Request{
			Name:  fmt.Sprintf("bell-%d", i),
			CQASM: bellCQASM, Backend: "superconducting", Shots: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	<-done
	for _, j := range jobs {
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.ID, err)
		}
	}
	body := scrape(t, s.Handler())
	if got := metricValue(t, body, `qserv_calibration_reloads_total{backend="superconducting"}`); got != 8 {
		t.Errorf("calibration_reloads_total = %g, want 8", got)
	}
}
