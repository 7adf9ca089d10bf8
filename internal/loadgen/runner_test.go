package loadgen

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/qserv"
)

// e2eScenario is a deliberately small end-to-end scenario: an open-loop
// mixed phase, a closed-loop session-bind phase, and a mid-run
// calibration-drift event — every moving part of the runner in under a
// second of wall clock.
func e2eScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := ParseScenario([]byte(`{
		"name": "e2e",
		"seeds": [42],
		"service": {"qubits": 8, "workers": 2, "queue": 64},
		"tenants": [{"name": "research", "weight": 1}],
		"phases": [
			{"name": "mixed", "duration_ms": 350,
			 "arrival": {"process": "poisson", "rate_per_sec": 40},
			 "mix": [
				{"class": "qft", "qubits": 4, "variants": 2, "shots": 16},
				{"class": "ghz", "qubits": 5, "variants": 2, "shots": 16}
			 ]},
			{"name": "binds", "duration_ms": 300,
			 "arrival": {"process": "closed", "clients": 2, "think_ms": 5},
			 "sessions": {"count": 2, "layers": 1, "qubits": 4, "shots": 16}}
		],
		"events": [{"kind": "recalibrate", "at_ms": 200,
		            "backend": "semiconducting", "drift_factor": 2}],
		"slo": {"p95_ms": 30000, "max_error_rate": 0.05, "max_reject_rate": 0.05}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunnerEndToEnd boots a private qservd, replays the scenario and
// checks the report reflects real traffic: completed ops in both
// phases, session binds that landed, engine-dispatch deltas, and trace
// files on disk.
func TestRunnerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e runner test skipped in -short mode")
	}
	s := e2eScenario(t)
	traceDir := filepath.Join(t.TempDir(), "traces")
	r := &Runner{
		DrainTimeout:   10 * time.Second,
		SampleInterval: 20 * time.Millisecond,
		TraceDir:       traceDir,
		OpTimeout:      20 * time.Second,
		Logf:           t.Logf,
	}
	rep, err := r.Run(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != "e2e" || rep.Seed != 42 || rep.WorkloadSHA256 == "" {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(rep.Phases))
	}
	for _, p := range rep.Phases {
		if p.Metrics.Ops == 0 {
			t.Errorf("phase %s saw no ops", p.Name)
		}
	}
	if rep.Totals.OK == 0 || rep.Totals.ErrorRate > 0.05 {
		t.Fatalf("traffic unhealthy: %+v", rep.Totals)
	}
	if rep.Totals.P95Ms <= 0 || rep.Totals.P50Ms > rep.Totals.P95Ms || rep.Totals.P95Ms > rep.Totals.P99Ms {
		t.Fatalf("latency percentiles inconsistent: %+v", rep.Totals)
	}
	if rep.Server.JobsDone == 0 {
		t.Fatalf("server counted no completed jobs: %+v", rep.Server)
	}
	// GHZ is Clifford, so the auto-dispatcher must have routed at least
	// some jobs to the stabilizer engine.
	if rep.Server.EngineDispatch["stabilizer"] == 0 {
		t.Errorf("no stabilizer dispatch recorded: %v", rep.Server.EngineDispatch)
	}
	if !rep.SLO.Pass {
		t.Errorf("generous SLO failed: %v", rep.SLO.Violations)
	}
	entries, err := os.ReadDir(traceDir)
	if err != nil || len(entries) == 0 {
		t.Errorf("no trace dumps written to %s (err=%v)", traceDir, err)
	}
}

// TestRunnerGateCatchesInjectedViolation is the negative control for
// the CI gate: an impossible SLO must produce a failing gate whose
// violations name the breached bound.
func TestRunnerGateCatchesInjectedViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e runner test skipped in -short mode")
	}
	s := e2eScenario(t)
	ms := 0.001
	s.SLO.P95Ms = &ms // no real request finishes in a microsecond
	r := &Runner{
		DrainTimeout:   10 * time.Second,
		SampleInterval: 20 * time.Millisecond,
		OpTimeout:      20 * time.Second,
		Logf:           t.Logf,
	}
	g, err := r.RunGate(s, []int64{42})
	if err != nil {
		t.Fatal(err)
	}
	if g.Pass {
		t.Fatal("gate passed an impossible p95 bound")
	}
	if len(g.Violations) == 0 {
		t.Fatal("failing gate carries no violations")
	}
}

// The server block read from /metrics agrees with the client's own
// accounting: every job the client saw finish is a job the server
// counted, and the smoke scenario's cache-hot phase registers
// full-artefact hits.
func TestRunnerServerBlockMatchesClient(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e runner test skipped in -short mode")
	}
	s, err := LoadScenario(filepath.Join("..", "..", "scenarios", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{DrainTimeout: 10 * time.Second, OpTimeout: 20 * time.Second, Logf: t.Logf}
	rep, err := r.Run(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Server.JobsDone != uint64(rep.Totals.OK) {
		t.Errorf("server jobs done = %d, client ok = %d", rep.Server.JobsDone, rep.Totals.OK)
	}
	if got, want := rep.Server.JobsDone+rep.Server.JobsFailed, uint64(rep.Totals.OK+rep.Totals.Failed); got != want {
		t.Errorf("server done+failed = %d, client ok+failed = %d", got, want)
	}
	if rep.Server.FullHitRate <= 0 {
		t.Errorf("full hit rate = %v, want > 0 from the cache-hot phase", rep.Server.FullHitRate)
	}
}

// A service with metrics disabled exposes no qserv samples; the runner
// refuses it up front instead of reporting a run of zeros.
func TestRunnerRejectsServiceWithoutMetrics(t *testing.T) {
	svc := qserv.DefaultService(qserv.Config{DisableMetrics: true}, 4, 1)
	svc.Start()
	t.Cleanup(svc.Stop)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	r := &Runner{AttachURL: srv.URL, Logf: t.Logf}
	rep, err := r.Run(e2eScenario(t), 42)
	if err == nil || !strings.Contains(err.Error(), "metrics disabled") {
		t.Fatalf("Run against a metrics-less service = (%v, %v), want a metrics-disabled error", rep, err)
	}
}
