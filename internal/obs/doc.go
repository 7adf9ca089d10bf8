// Package obs is the dependency-free observability substrate of the
// accelerator service: a Prometheus-style metrics registry (atomic
// counters, gauges and fixed-bucket histograms with text-format
// exposition) and a span-based job tracer with a bounded ring of
// retained traces.
//
// # Metrics
//
// A Registry holds metric families created once at wiring time; the
// returned handles (Counter, Gauge, Histogram) are lock-free on the
// record path — one atomic CAS per Observe/Add — so instrumenting a hot
// path costs nanoseconds. Families may carry labels: a CounterVec
// resolves (label values...) to a child Counter, and callers are
// expected to resolve children once and hold the handle, not to call
// With per event. WritePrometheus renders the whole registry in the
// Prometheus text exposition format (families sorted by name, children
// by label values — deterministic, golden-testable), and Handler serves
// it over HTTP. OnCollect hooks run before each exposition so scrape-
// time values (queue depths, cache counters maintained elsewhere) can be
// mirrored into gauges and counters.
//
// Histograms use explicit ascending upper bounds (seconds, by
// convention); ExpBuckets builds geometric ladders, and LatencyBuckets
// is the shared 36-bucket ladder spanning 128 ns to ~37 minutes that the
// service's latency and per-pass compile histograms use.
//
// ParseText reads an exposition back into a map from series (name and
// label set exactly as exposed) to value, and Sum folds a family's
// series by label, so tools, tests and in-process summaries all read
// the one /metrics surface.
//
// # Tracing
//
// A Trace is a tree of Spans rooted at one job: Tracer.Start (or
// NewTraceAt, for a root at an explicit instant) starts the root,
// StartChild/End bracket live phases, and ChildAt grafts
// synthesized spans (per-compiler-pass timings reconstructed from a
// CompileReport, say) at explicit instants. All Span and Trace methods
// are safe for concurrent use and nil-safe — a nil *Trace or *Span is a
// disabled trace, so instrumentation sites need no enabled-checks and
// cost nothing when tracing is off. View renders the tree as a JSON-
// ready SpanView with start instants, durations and attributes.
//
// A Tracer keeps completed and in-flight traces in a bounded ring keyed
// by trace ID (the service uses job IDs), evicting the oldest insertion
// beyond capacity — memory stays bounded no matter the traffic.
package obs
