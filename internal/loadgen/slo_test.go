package loadgen

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func sloScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := ParseScenario([]byte(`{
		"name": "slo",
		"phases": [
			{"name": "hot", "duration_ms": 100,
			 "arrival": {"process": "poisson", "rate_per_sec": 5},
			 "mix": [{"class": "qft"}]},
			{"name": "cold", "duration_ms": 100,
			 "arrival": {"process": "poisson", "rate_per_sec": 5},
			 "mix": [{"class": "qft", "variants": 8}]}
		],
		"slo": {
			"p95_ms": 100, "max_error_rate": 0.01,
			"compare": [{"metric": "p95_ms", "better": "hot", "worse": "cold", "min_effect": 0.2}]
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func report(seed int64, p95Total, p95Hot, p95Cold, errRate float64) *RunReport {
	return &RunReport{
		Scenario: "slo",
		Seed:     seed,
		Totals:   MetricsBlock{Ops: 10, OK: 10, P95Ms: p95Total, ErrorRate: errRate},
		Phases: []PhaseMetrics{
			{Name: "hot", Metrics: MetricsBlock{P95Ms: p95Hot}},
			{Name: "cold", Metrics: MetricsBlock{P95Ms: p95Cold}},
		},
	}
}

func TestEvaluateSLOBounds(t *testing.T) {
	s := sloScenario(t)
	r := report(42, 50, 10, 20, 0)
	EvaluateSLO(s, r)
	if !r.SLO.Pass {
		t.Fatalf("healthy run failed SLO: %v", r.SLO.Violations)
	}
	r = report(42, 150, 10, 20, 0)
	EvaluateSLO(s, r)
	if r.SLO.Pass || len(r.SLO.Violations) != 1 || !strings.Contains(r.SLO.Violations[0], "p95_ms") {
		t.Fatalf("latency breach not caught: %+v", r.SLO)
	}
	r = report(42, 50, 10, 20, 0.5)
	EvaluateSLO(s, r)
	if r.SLO.Pass || !strings.Contains(strings.Join(r.SLO.Violations, ";"), "error_rate") {
		t.Fatalf("error-rate breach not caught: %+v", r.SLO)
	}
}

func TestEvaluateSLOCompareEffect(t *testing.T) {
	s := sloScenario(t)
	// hot 10 vs cold 20: effect 0.5 >= 0.2 → pass.
	r := report(42, 50, 10, 20, 0)
	EvaluateSLO(s, r)
	if !r.SLO.Pass {
		t.Fatalf("0.5 effect failed: %v", r.SLO.Violations)
	}
	// hot 18 vs cold 20: effect 0.1 < 0.2 → fail.
	r = report(42, 50, 18, 20, 0)
	EvaluateSLO(s, r)
	if r.SLO.Pass || !strings.Contains(r.SLO.Violations[0], "effect") {
		t.Fatalf("weak effect not caught: %+v", r.SLO)
	}
	// hot slower than cold: negative effect → fail.
	r = report(42, 50, 30, 20, 0)
	EvaluateSLO(s, r)
	if r.SLO.Pass {
		t.Fatal("inverted effect passed")
	}
}

// TestGateDirectionalConsistency is the BLIS rule: the gate passes only
// when every seed passes every check — a single contradicting seed
// fails the whole gate even if the mean looks fine.
func TestGateDirectionalConsistency(t *testing.T) {
	s := sloScenario(t)
	good := func(seed int64) *RunReport { return report(seed, 50, 10, 20, 0) }
	g := Gate(s, []*RunReport{good(42), good(123), good(456)})
	if !g.Pass {
		t.Fatalf("all-healthy gate failed: %v", g.Violations)
	}
	if len(g.Seeds) != 3 {
		t.Fatalf("gate saw %d seeds", len(g.Seeds))
	}
	// Seed 123 contradicts the compare direction; the two other seeds
	// pass with a wide margin. Directional consistency must fail the
	// gate anyway.
	contradicting := report(123, 50, 30, 20, 0)
	g = Gate(s, []*RunReport{good(42), contradicting, good(456)})
	if g.Pass {
		t.Fatal("gate passed with a contradicting seed — directional consistency broken")
	}
	joined := strings.Join(g.Violations, ";")
	if !strings.Contains(joined, "seed 123") {
		t.Fatalf("violations do not name the contradicting seed: %v", g.Violations)
	}
	// Summary must aggregate across seeds (mean/min/max).
	var p95 *SeedSummary
	for i := range g.Summary {
		if g.Summary[i].Metric == "p95_ms" {
			p95 = &g.Summary[i]
		}
	}
	if p95 == nil || p95.Min != 50 || p95.Max != 50 || p95.Mean != 50 {
		t.Fatalf("p95 summary wrong: %+v", p95)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	lat := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(lat, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(lat, 95); got != 10 {
		t.Errorf("p95 = %v, want 10", got)
	}
	if got := percentile(lat, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestBuildBlock(t *testing.T) {
	results := []opResult{
		{latencyMs: 10}, {latencyMs: 20}, {latencyMs: 30},
		{rejected: true}, {failed: true},
	}
	b := buildBlock(results, 1000)
	if b.Ops != 5 || b.OK != 3 || b.Failed != 1 || b.Rejected != 1 {
		t.Fatalf("counts wrong: %+v", b)
	}
	if b.ErrorRate != 0.2 || b.RejectRate != 0.2 {
		t.Fatalf("rates wrong: %+v", b)
	}
	if b.MeanMs != 20 || b.MaxMs != 30 {
		t.Fatalf("latency stats wrong: %+v", b)
	}
	if b.ThroughputPerSec != 3 {
		t.Fatalf("throughput = %v, want 3", b.ThroughputPerSec)
	}
}

// The engine-dispatch mix is the per-engine growth of
// qserv_engine_dispatch_total between two parsed /metrics scrapes.
func TestParseEngineDispatch(t *testing.T) {
	after, err := obs.ParseText(strings.NewReader(`# HELP qserv_engine_dispatch_total Jobs dispatched per engine.
# TYPE qserv_engine_dispatch_total counter
qserv_engine_dispatch_total{engine="optimized"} 33
qserv_engine_dispatch_total{engine="stabilizer"} 16
qserv_jobs_submitted_total 49
`))
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]float64{`qserv_engine_dispatch_total{engine="optimized"}`: 30}
	got := serverDelta(before, after).EngineDispatch
	if got["optimized"] != 3 || got["stabilizer"] != 16 || len(got) != 2 {
		t.Fatalf("dispatch delta %v", got)
	}
	if d := serverDelta(after, after).EngineDispatch; d != nil {
		t.Fatalf("zero delta should be nil, got %v", d)
	}
}

// Hit rates, done and failed counts are deltas over the run, not
// lifetime totals.
func TestDeltaRate(t *testing.T) {
	snapshot := func(fullHits, fullMisses, prefixHits, done, failed float64) map[string]float64 {
		return map[string]float64{
			`qserv_compile_cache_ops_total{level="full",op="hit"}`:    fullHits,
			`qserv_compile_cache_ops_total{level="full",op="miss"}`:   fullMisses,
			`qserv_compile_cache_ops_total{level="prefix",op="hit"}`:  prefixHits,
			`qserv_compile_cache_ops_total{level="prefix",op="miss"}`: 0,
			`qserv_jobs_completed_total{backend="a",status="done"}`:   done,
			`qserv_jobs_completed_total{backend="b",status="done"}`:   done,
			`qserv_jobs_completed_total{backend="b",status="failed"}`: failed,
		}
	}
	before, after := snapshot(10, 10, 0, 5, 1), snapshot(40, 20, 0, 9, 3)
	got := serverDelta(before, after)
	if got.FullHitRate != 0.75 || got.PrefixHitRate != 0 {
		t.Errorf("hit rates = %v/%v, want 0.75/0 (no prefix traffic)", got.FullHitRate, got.PrefixHitRate)
	}
	if got.JobsDone != 8 || got.JobsFailed != 2 {
		t.Errorf("jobs done/failed = %d/%d, want 8/2", got.JobsDone, got.JobsFailed)
	}
	if got := serverDelta(after, after).FullHitRate; got != 0 {
		t.Errorf("no-traffic delta rate = %v, want 0", got)
	}
}

func TestFormatRun(t *testing.T) {
	r := report(42, 50, 10, 20, 0)
	r.Server.EngineDispatch = map[string]float64{"optimized": 5, "stabilizer": 2}
	r.SLO = SLOResult{Pass: true}
	out := FormatRun(r)
	for _, want := range []string{"slo seed=42", "p95=50.0ms", "dispatch=optimized:5,stabilizer:2", "SLO=pass"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatRun missing %q: %s", want, out)
		}
	}
	r.SLO = SLOResult{Pass: false, Violations: []string{"x"}}
	if out := FormatRun(r); !strings.Contains(out, "SLO=FAIL(1)") {
		t.Errorf("FormatRun missing failure marker: %s", out)
	}
}
