package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricName constrains family names to the Prometheus identifier
// grammar; label names additionally exclude colons.
var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Metric family types, as rendered in # TYPE exposition lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry is a set of metric families with Prometheus text-format
// exposition. Families are created once at wiring time (creation panics
// on invalid or duplicate names — misregistration is a programming
// error, caught at startup); the returned handles are safe for
// concurrent use and lock-free on the record path.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is one named metric with a fixed label schema and a child per
// observed label-value combination.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64      // histograms only
	fn      func() float64 // GaugeFunc families only

	mu       sync.Mutex
	children map[string]*metric
}

// metric is one child's storage: a float64-bits atomic for counters and
// gauges, per-bucket counts plus a sum for histograms.
type metric struct {
	labelValues []string
	bits        atomic.Uint64 // counter/gauge value as math.Float64bits
	buckets     []float64     // histogram upper bounds (shared with family)
	counts      []atomic.Uint64
	sumBits     atomic.Uint64
}

// newFamily registers a family, panicking on schema errors.
func (r *Registry) newFamily(name, help, typ string, buckets []float64, labels ...string) *family {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelName.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	if typ == typeHistogram {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
			}
		}
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   labels,
		buckets:  buckets,
		children: map[string]*metric{},
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.families[name] = f
	return f
}

// child resolves (and lazily creates) the child for the given label
// values, panicking on arity mismatch.
func (f *family) child(labelValues []string) *metric {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[key]
	if !ok {
		m = &metric{labelValues: append([]string(nil), labelValues...), buckets: f.buckets}
		if f.typ == typeHistogram {
			m.counts = make([]atomic.Uint64, len(f.buckets)+1) // +1: the +Inf bucket
		}
		f.children[key] = m
	}
	return m
}

// addFloat folds v into the metric's float64 value with a CAS loop.
func (m *metric) addFloat(v float64) {
	for {
		old := m.bits.Load()
		if m.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Counter is a monotonically increasing value.
type Counter struct{ m *metric }

// Inc adds 1.
func (c *Counter) Inc() { c.m.addFloat(1) }

// Add adds v, which must be non-negative.
func (c *Counter) Add(v float64) { c.m.addFloat(v) }

// Set overwrites the counter's value. It exists for scrape-time mirrors
// of monotonic counts maintained elsewhere (cache hit totals, say) that
// an OnCollect hook copies into the registry; instrumentation sites
// should use Inc/Add.
func (c *Counter) Set(v float64) { c.m.bits.Store(math.Float64bits(v)) }

// Gauge is a value that can go up and down.
type Gauge struct{ m *metric }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.m.bits.Store(math.Float64bits(v)) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) { g.m.addFloat(v) }

// Histogram counts observations into fixed buckets with ascending upper
// bounds (inclusive, Prometheus "le" semantics) plus an implicit +Inf
// bucket, tracking the running sum alongside.
type Histogram struct{ m *metric }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	m := h.m
	// First index whose upper bound admits v; len(buckets) is +Inf.
	i := sort.SearchFloat64s(m.buckets, v)
	m.counts[i].Add(1)
	for {
		old := m.sumBits.Load()
		if m.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSeconds records a duration given in nanoseconds as seconds —
// the convention every latency histogram in the service follows.
func (h *Histogram) ObserveSeconds(ns int64) { h.Observe(float64(ns) / 1e9) }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With resolves the child counter for the given label values. Resolve
// once and hold the handle on hot paths.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{m: v.f.child(labelValues)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With resolves the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{m: v.f.child(labelValues)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With resolves the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{m: v.f.child(labelValues)}
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return &Counter{m: r.newFamily(name, help, typeCounter, nil).child(nil)}
}

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.newFamily(name, help, typeCounter, nil, labels...)}
}

// NewGaugeVec registers a gauge family with the given label names.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.newFamily(name, help, typeGauge, nil, labels...)}
}

// NewHistogram registers an unlabeled histogram with the given
// ascending upper bounds.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return &Histogram{m: r.newFamily(name, help, typeHistogram, buckets).child(nil)}
}

// NewHistogramVec registers a histogram family with the given ascending
// upper bounds and label names.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.newFamily(name, help, typeHistogram, buckets, labels...)}
}

// GaugeFunc registers a gauge whose value is computed by fn at each
// exposition — for values that are cheap to read but wasteful to track
// (uptime, queue depth snapshots).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.newFamily(name, help, typeGauge, nil)
	f.fn = fn
}

// OnCollect registers a hook run before each exposition, so values
// maintained outside the registry can be mirrored into gauges and
// counters at scrape time.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// ExpBuckets returns n geometrically spaced upper bounds starting at
// start and multiplying by factor (> 1) per bucket.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the shared latency ladder: 35 geometric bounds
// doubling from 128 ns (so bucket 0 is [0, 128 ns]) up to ~2199 s, plus
// the implicit +Inf bucket — 36 buckets spanning sub-microsecond
// compiler passes to multi-second job outliers.
var LatencyBuckets = ExpBuckets(128e-9, 2, 35)
