package obs

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// The exposition format is a wire contract: pin it against a golden
// file (regenerate with `go test ./internal/obs -run Golden -update`).
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	jobs := r.NewCounterVec("qserv_jobs_completed_total", "Jobs completed, by backend and status.", "backend", "status")
	jobs.With("perfect", "done").Add(41)
	jobs.With("perfect", "failed").Inc()
	jobs.With(`we"ird\back`+"\nend`", "done").Inc() // label escaping
	r.NewCounter("qserv_jobs_submitted_total", "Jobs admitted by Submit.").Add(43)
	r.NewGaugeVec("qserv_queue_depth", "Queued jobs per backend.", "backend").With("perfect").Set(3)
	h := r.NewHistogramVec("qserv_job_latency_seconds", "Submit-to-finish latency.",
		[]float64{0.001, 0.01, 0.1}, "backend").With("perfect")
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(7)
	r.GaugeFunc("qserv_uptime_seconds", "Seconds since Start.", func() float64 { return 12.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// ParseText inverts WritePrometheus: every sample comes back under its
// series exactly as exposed, label escapes included.
func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("plain_total", "A plain counter.").Add(7)
	r.NewGaugeVec("odd_labels", "Label values that need escapes.", "v").With("q\"b\\s\nn").Set(-2.5)
	h := r.NewHistogram("lat_seconds", "A histogram.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(3)
	r.GaugeFunc("fn_gauge", "A gauge func.", func() float64 { return 1.5e-7 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"plain_total":                   7,
		`odd_labels{v="q\"b\\s\nn"}`:    -2.5,
		`lat_seconds_bucket{le="0.5"}`:  1,
		`lat_seconds_bucket{le="1"}`:    1,
		`lat_seconds_bucket{le="+Inf"}`: 2,
		"lat_seconds_sum":               3.25,
		"lat_seconds_count":             2,
		"fn_gauge":                      1.5e-7,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseText =\n%v\nwant\n%v\nfrom\n%s", got, want, b.String())
	}
	if s := Sum(got, "lat_seconds"); s != 0 {
		t.Errorf("Sum over a histogram's base name = %v, want 0 (suffixed series never count)", s)
	}
}

// A malformed sample line fails the whole parse, naming its line.
func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"x_total",
		"x_total five",
		"9x 1",
		`x{a="1"}1`,
		`x{a="1"} 1 2`,
		`x{a=1} 1`,
		`x{1a="v"} 1`,
		`x{a="\q"} 1`,
		`x{a="1" b="2"} 1`,
		`x{a="1"`,
	} {
		text := "# HELP ok_total Fine.\n\nok_total 1\n" + bad + "\n"
		if _, err := ParseText(strings.NewReader(text)); err == nil || !strings.Contains(err.Error(), "line 4") {
			t.Errorf("ParseText(%q) error = %v, want one naming line 4", bad, err)
		}
	}
}

// Sum folds a family's series, filtered by exposed label pairs.
func TestSum(t *testing.T) {
	samples := map[string]float64{
		`jobs_total{backend="a",status="done"}`:   3,
		`jobs_total{backend="b",status="done"}`:   4,
		`jobs_total{backend="b",status="failed"}`: 1,
		`jobs_total_extra{status="done"}`:         100,
		"depth":                                   2,
	}
	for _, c := range []struct {
		name  string
		pairs []string
		want  float64
	}{
		{"jobs_total", nil, 8},
		{"jobs_total", []string{`status="done"`}, 7},
		{"jobs_total", []string{`backend="b"`, `status="done"`}, 4},
		{"jobs_total", []string{`status="gone"`}, 0},
		{"depth", nil, 2},
		{"missing", nil, 0},
	} {
		if got := Sum(samples, c.name, c.pairs...); got != c.want {
			t.Errorf("Sum(%s, %v) = %v, want %v", c.name, c.pairs, got, c.want)
		}
	}
}

// The HTTP handler serves the same rendering with the Prometheus
// content type.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "").Add(5)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	buf := make([]byte, 4096)
	n, _ := res.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "x_total 5") {
		t.Errorf("body missing sample: %q", buf[:n])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		5:       "5",
		0.001:   "0.001",
		1.5e-07: "1.5e-07",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
