package qserv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qubo"
	"repro/internal/target"
)

// labDeviceJSON is a 4-qubit calibrated linear device in the wire
// schema, used as a per-job target override.
const labDeviceJSON = `{
	"name": "lab-chip", "qubits": 4, "cycle_time_ns": 20,
	"gates": {"i":{"duration":1},"rz":{"duration":1},"x90":{"duration":1},"mx90":{"duration":1},
	          "y90":{"duration":1},"my90":{"duration":1},"cz":{"duration":2},
	          "measure":{"duration":15},"prep_z":{"duration":10},"wait":{"duration":1},"barrier":{"duration":0}},
	"topology": {"kind": "linear"},
	"calibration": {
		"qubits": [
			{"t1_ns": 30000, "t2_ns": 20000, "readout_error": 0.01, "single_qubit_error": 0.001},
			{"t1_ns": 30000, "t2_ns": 20000, "readout_error": 0.01, "single_qubit_error": 0.001},
			{"t1_ns": 30000, "t2_ns": 20000, "readout_error": 0.01, "single_qubit_error": 0.001},
			{"t1_ns": 30000, "t2_ns": 20000, "readout_error": 0.01, "single_qubit_error": 0.001}
		],
		"edges": [
			{"a":0,"b":1,"two_qubit_error":0.005},
			{"a":1,"b":2,"two_qubit_error":0.005},
			{"a":2,"b":3,"two_qubit_error":0.005}
		]
	}
}`

func awaitJob(t *testing.T, s *Service, req Request) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s: %v", j.ID, err)
	}
	return j
}

// Acceptance: re-calibrating a device changes CompileFingerprint and
// misses the qserv compile cache — jobs against fresher calibration
// never reuse artefacts compiled for the stale table.
func TestRecalibrationMissesCompileCache(t *testing.T) {
	s := New(Config{Seed: 13})
	s.AddBackend(NewStackBackend(core.NewSuperconducting(13)), 2)
	s.Start()
	t.Cleanup(s.Stop)

	base := Request{Program: bellProgram("recal"), Backend: "superconducting", Shots: 8}
	if j := awaitJob(t, s, base); j.CacheHit() {
		t.Fatal("first compile reported a cache hit")
	}
	if j := awaitJob(t, s, base); !j.CacheHit() {
		t.Fatal("identical resubmission missed the compile cache")
	}

	// Fresh calibration data: one edge degraded.
	recal := target.Superconducting().Calibration
	recal.SetEdgeError(0, 9, 0.2)
	withCal := base
	withCal.Calibration = recal
	if j := awaitJob(t, s, withCal); j.CacheHit() {
		t.Fatal("re-calibrated job reused a compile cached for the stale calibration")
	}
	// The same fresh table resubmitted hits its own entry.
	if j := awaitJob(t, s, withCal); !j.CacheHit() {
		t.Fatal("identical re-calibrated resubmission missed the cache")
	}
	// And the original calibration still hits the original entry.
	if j := awaitJob(t, s, base); !j.CacheHit() {
		t.Fatal("original calibration no longer hits its cache entry")
	}
}

// Per-job device targets: the job compiles and executes against the
// submitted device, keyed separately in the compile cache.
func TestPerJobTargetOverride(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 5})
	dev, err := target.Parse([]byte(labDeviceJSON))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Program: bellProgram("target"), Backend: "perfect", Target: dev, Shots: 16}
	j := awaitJob(t, s, req)
	if j.CacheHit() {
		t.Error("first targeted job reported a cache hit")
	}
	res := j.Result()
	if res == nil || res.Report == nil || res.Report.Result == nil {
		t.Fatal("targeted job returned no report")
	}
	if res.Report.Trace == nil {
		t.Error("calibrated target did not execute through the realistic path")
	}
	if res.Report.Stack != "lab-chip" {
		t.Errorf("report stack %q, want lab-chip", res.Report.Stack)
	}
	if j2 := awaitJob(t, s, req); !j2.CacheHit() {
		t.Error("identical targeted job missed the compile cache")
	}
	if j3 := awaitJob(t, s, Request{Program: bellProgram("target"), Backend: "perfect", Shots: 16}); j3.CacheHit() {
		t.Error("untargeted job shared the targeted job's cache entry")
	}
}

// Invalid overrides are rejected at Submit (HTTP 400), never enqueued.
func TestDeviceOverrideValidation(t *testing.T) {
	s := New(Config{Seed: 1})
	s.AddBackend(NewStackBackend(core.NewPerfect(5, 1)), 1)
	s.AddBackend(NewStackBackend(core.NewSemiconducting(1)), 1)
	s.AddBackend(NewAnnealBackend("annealer", false, anneal.SQAOptions{}, anneal.DigitalAnnealerOptions{}), 1)
	s.Start()
	t.Cleanup(s.Stop)

	badDev := target.Perfect(3)
	badDev.NumQubits = 0
	if _, err := s.Submit(Request{CQASM: bellCQASM, Target: badDev}); err == nil {
		t.Error("invalid target device accepted")
	}
	// Calibration overrides need the routed backend to be calibrated.
	cal := target.Semiconducting().Calibration
	if _, err := s.Submit(Request{CQASM: bellCQASM, Backend: "perfect", Calibration: cal}); err == nil {
		t.Error("calibration override on an uncalibrated backend accepted")
	}
	// Wrong-size table against the semiconducting device.
	shortCal := &target.Calibration{Qubits: make([]target.QubitCalibration, 3)}
	if _, err := s.Submit(Request{CQASM: bellCQASM, Backend: "semiconducting", Calibration: shortCal}); err == nil {
		t.Error("wrong-size calibration accepted")
	}
	// Overrides on non-gate backends are rejected.
	if _, err := s.Submit(Request{QUBO: qubo.New(3), Backend: "annealer", Calibration: cal}); err == nil {
		t.Error("calibration on an annealing job accepted")
	}
	// A valid override passes.
	okCal := target.Semiconducting().Calibration
	okCal.SetEdgeError(0, 1, 0.05)
	if _, err := s.Submit(Request{CQASM: bellCQASM, Backend: "semiconducting", Calibration: okCal}); err != nil {
		t.Errorf("valid calibration override rejected: %v", err)
	}
}

// GET /backends exposes each gate backend's device — calibration
// included — and its content hash; accelerator lanes carry no device.
func TestHTTPBackendsEndpoint(t *testing.T) {
	s := New(Config{Seed: 1})
	s.AddBackend(NewStackBackend(core.NewSuperconducting(1)), 2)
	s.AddBackend(NewAnnealBackend("annealer", false, anneal.SQAOptions{}, anneal.DigitalAnnealerOptions{}), 1)
	s.Start()
	t.Cleanup(s.Stop)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /backends = %d", resp.StatusCode)
	}
	var body struct {
		Backends []struct {
			Name       string          `json:"name"`
			Kind       string          `json:"kind"`
			Workers    int             `json:"workers"`
			Device     json.RawMessage `json:"device"`
			DeviceHash string          `json:"device_hash"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Backends) != 2 {
		t.Fatalf("%d backends, want 2", len(body.Backends))
	}
	sc := body.Backends[0]
	if sc.Name != "superconducting" || sc.Kind != "gate" || sc.DeviceHash == "" {
		t.Errorf("superconducting view wrong: %+v", sc)
	}
	dev, err := target.Parse(sc.Device)
	if err != nil {
		t.Fatalf("backend device JSON does not round-trip: %v", err)
	}
	if dev.Calibration == nil || len(dev.Calibration.Qubits) != 17 {
		t.Error("backend device missing calibration data")
	}
	if dev.Hash() != sc.DeviceHash {
		t.Error("device_hash does not match the device body")
	}
	ann := body.Backends[1]
	if ann.Kind != "accelerator" || len(ann.Device) > 0 {
		t.Errorf("annealer view wrong: %+v", ann)
	}
}

// The HTTP surface: a target override compiles against the submitted
// device (echoed in the job view), invalid target/calibration JSON is a
// 400.
func TestHTTPTargetAndCalibration(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 9})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/submit", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp, m
	}

	// Valid device target.
	resp, m := post(fmt.Sprintf(`{"cqasm": %q, "backend": "perfect", "target": %s, "shots": 8}`,
		bellCQASM, labDeviceJSON))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("targeted submit = %d (%v)", resp.StatusCode, m)
	}
	id := m["id"].(string)
	jr, err := http.Get(srv.URL + "/jobs/" + id + "?wait=15s")
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(jr.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if view.Status != StatusDone {
		t.Fatalf("targeted job status %s (%s)", view.Status, view.Error)
	}
	if view.Device != "lab-chip" {
		t.Errorf("job view device %q, want lab-chip", view.Device)
	}

	// Malformed device JSON → 400 with the target error.
	resp, m = post(fmt.Sprintf(`{"cqasm": %q, "target": {"name":"x","qubits":0}}`, bellCQASM))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid target = %d, want 400", resp.StatusCode)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "no qubits") {
		t.Errorf("error %q does not explain the invalid device", msg)
	}

	// Invalid calibration override → 400.
	resp, m = post(fmt.Sprintf(
		`{"cqasm": %q, "backend": "semiconducting", "calibration": {"qubits": [{"t1_ns": -5}]}}`, bellCQASM))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid calibration = %d, want 400 (%v)", resp.StatusCode, m)
	}
}

// Every pass of every compile lands in both the pass run counter and
// the pass wall-time histogram, so tail compile time stays visible per
// backend and pass.
func TestPassLatencyHistogramCounts(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 17, CacheSize: -1}) // no cache: every job compiles
	for i := 0; i < 8; i++ {
		awaitJob(t, s, Request{Program: bellProgram(fmt.Sprintf("p%d", i)), Backend: "perfect", Shots: 4})
	}
	m := scrape(t, s.Handler())
	const runsPrefix = `qserv_compile_pass_runs_total{backend="perfect",pass="`
	passes := 0
	for _, series := range slices.Sorted(maps.Keys(m)) {
		pass, ok := strings.CutPrefix(series, runsPrefix)
		if !ok {
			continue
		}
		pass = strings.TrimSuffix(pass, `"}`)
		passes++
		if runs := m[series]; runs != 8 {
			t.Errorf("pass %s runs = %g, want 8", pass, runs)
		}
		count := metricValue(t, m, `qserv_compile_pass_seconds_count{backend="perfect",pass="`+pass+`"}`)
		if count != 8 {
			t.Errorf("pass %s histogram count = %g, want 8", pass, count)
		}
	}
	if passes == 0 {
		t.Fatal("no compile-pass metrics")
	}
}

// The shared geometric latency ladder keeps ~1 µs pass times and a
// 50 ms outlier in separate buckets of the exposed histogram.
func TestLatencyHistogram(t *testing.T) {
	r := obs.NewRegistry()
	h := r.NewHistogram("test_latency_seconds", "t", obs.LatencyBuckets)
	for i := 0; i < 99; i++ {
		h.ObserveSeconds(1000) // ~1 µs
	}
	h.ObserveSeconds(50_000_000) // one 50 ms outlier
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseText(&b)
	if err != nil {
		t.Fatal(err)
	}
	// fast is the first bound admitting 1 µs, slow the last below 50 ms.
	var fast, slow float64
	for _, le := range obs.LatencyBuckets {
		if fast == 0 && le >= 1e-6 {
			fast = le
		}
		if le < 0.05 {
			slow = le
		}
	}
	bucket := func(le float64) float64 {
		return metricValue(t, m, `test_latency_seconds_bucket{le="`+strconv.FormatFloat(le, 'g', -1, 64)+`"}`)
	}
	if got := bucket(fast); got != 99 {
		t.Errorf("le=%g bucket = %g, want the 99 ~1 µs observations", fast, got)
	}
	if got := bucket(slow); got != 99 {
		t.Errorf("le=%g bucket = %g, want 99: the 50 ms outlier must stay above it", slow, got)
	}
	if got := metricValue(t, m, `test_latency_seconds_bucket{le="+Inf"}`); got != 100 {
		t.Errorf("+Inf bucket = %g, want 100", got)
	}
}
