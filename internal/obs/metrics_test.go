package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// Concurrent increments across counters, gauges and histograms must
// lose nothing (run under -race in CI).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("ops_total", "ops")
	cv := r.NewCounterVec("labeled_total", "labeled", "lane")
	g := r.NewGaugeVec("depth", "depth").With()
	h := r.NewHistogram("lat_seconds", "latency", ExpBuckets(1e-6, 2, 10))

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := cv.With("a")
			if w%2 == 1 {
				lane = cv.With("b")
			}
			for i := 0; i < perWorker; i++ {
				c.Inc()
				lane.Add(2)
				g.Add(1)
				g.Add(-1)
				h.Observe(1e-5)
			}
		}(w)
	}
	wg.Wait()

	got := scrape(t, r)
	if v := got["ops_total"]; v != workers*perWorker {
		t.Errorf("counter = %v, want %d", v, workers*perWorker)
	}
	if sum := Sum(got, "labeled_total"); sum != 2*workers*perWorker {
		t.Errorf("labeled counters sum = %v, want %d", sum, 2*workers*perWorker)
	}
	if v := got["depth"]; v != 0 {
		t.Errorf("gauge = %v, want 0", v)
	}
	if v := got["lat_seconds_count"]; v != workers*perWorker {
		t.Errorf("histogram count = %v, want %d", v, workers*perWorker)
	}
	wantSum := float64(workers*perWorker) * 1e-5
	if v := got["lat_seconds_sum"]; math.Abs(v-wantSum)/wantSum > 1e-9 {
		t.Errorf("histogram sum = %v, want %v", v, wantSum)
	}
}

// scrape renders the registry and parses the exposition back: the one
// read path for metric values.
func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// Observations landing exactly on a bucket's upper bound must count
// into that bucket (inclusive "le" semantics), and values beyond the
// last bound into the +Inf bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("edges", "", []float64{1, 2, 4})
	for _, v := range []float64{0, 1, 1.0000001, 2, 3.999, 4, 4.1, 1000} {
		h.Observe(v)
	}
	m := h.m
	wantCounts := []uint64{2, 2, 2, 2} // [0,1], (1,2], (2,4], (4,+Inf]
	for i, want := range wantCounts {
		if got := m.counts[i].Load(); got != want {
			t.Errorf("bucket %d count = %d, want %d", i, got, want)
		}
	}
	if got := scrape(t, r)["edges_count"]; got != 8 {
		t.Errorf("count = %v, want 8", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(128e-9, 2, 4)
	want := []float64{128e-9, 256e-9, 512e-9, 1024e-9}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Errorf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	if len(LatencyBuckets) != 35 {
		t.Errorf("LatencyBuckets has %d bounds, want 35", len(LatencyBuckets))
	}
}

// Registration misuse is a programming error caught by panics at wiring
// time.
func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	mustPanic("duplicate", func() { r.NewCounter("dup_total", "") })
	mustPanic("bad name", func() { r.NewCounter("0bad", "") })
	mustPanic("bad label", func() { r.NewCounterVec("lv_total", "", "0bad") })
	mustPanic("no buckets", func() { r.NewHistogram("h0", "", nil) })
	mustPanic("unsorted buckets", func() { r.NewHistogram("h1", "", []float64{2, 1}) })
	v := r.NewCounterVec("arity_total", "", "a", "b")
	mustPanic("arity", func() { v.With("only-one") })
}

// Counter.Set exists for scrape-time mirrors; GaugeFunc and OnCollect
// feed exposition-time values.
func TestCollectHooks(t *testing.T) {
	r := NewRegistry()
	mirror := r.NewCounter("mirrored_total", "")
	external := 0.0
	r.OnCollect(func() { mirror.Set(external) })
	r.GaugeFunc("uptime_seconds", "", func() float64 { return 42 })

	external = 7
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "mirrored_total 7\n") {
		t.Errorf("mirrored counter missing:\n%s", out)
	}
	if !strings.Contains(out, "uptime_seconds 42\n") {
		t.Errorf("gauge func missing:\n%s", out)
	}
}
