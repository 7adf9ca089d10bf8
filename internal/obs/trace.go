package obs

import (
	"sync"
	"time"
)

// Trace is one job's span tree. All methods — on the trace and on its
// spans — are safe for concurrent use (one mutex guards the whole tree;
// traces are small and short-lived) and nil-safe: a nil *Trace is a
// disabled trace whose spans are all nil, so instrumentation sites call
// straight through without enabled-checks.
type Trace struct {
	id   string
	mu   sync.Mutex
	root *Span
}

// Span is one timed phase of a trace, with optional attributes and
// child spans. Create spans through Trace/Span methods only.
type Span struct {
	t        *Trace
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// NewTraceAt starts a trace whose root span begins at an explicit
// instant — used where the root must agree exactly with a timestamp
// recorded elsewhere (a job's submit time).
func NewTraceAt(id, rootName string, start time.Time) *Trace {
	t := &Trace{id: id}
	t.root = &Span{t: t, name: rootName, start: start}
	return t
}

// ID returns the trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// StartChild adds a child span beginning now.
func (s *Span) StartChild(name string) *Span {
	return s.StartChildAt(name, time.Now())
}

// StartChildAt adds a child span beginning at an explicit instant.
func (s *Span) StartChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	c := &Span{t: s.t, name: name, start: start}
	s.children = append(s.children, c)
	return c
}

// ChildAt grafts an already-timed child span — how spans synthesized
// from external timing records (a CompileReport's per-pass wall times,
// an engine's shot-batch timing) enter the tree.
func (s *Span) ChildAt(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	c := &Span{t: s.t, name: name, start: start, end: start.Add(d)}
	s.children = append(s.children, c)
	return c
}

// SetAttr annotates the span. Setting an existing key overwrites it.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i, a := range s.attrs {
		if a.Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End closes the span now. Ending an ended span is a no-op.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt closes the span at an explicit instant — used where span edges
// must agree exactly with timestamps recorded elsewhere (a job's
// finish time, so the root span's duration matches the reported
// latency).
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.end.IsZero() {
		s.end = at
	}
}

// SpanView is the JSON rendering of one span.
type SpanView struct {
	Name        string `json:"name"`
	StartUnixNs int64  `json:"start_unix_ns"`
	// DurationNs is the span's closed duration; 0 with InFlight set
	// while the span is still open.
	DurationNs int64             `json:"duration_ns"`
	InFlight   bool              `json:"in_flight,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*SpanView       `json:"children,omitempty"`
}

// TraceView is the JSON rendering of a whole trace.
type TraceView struct {
	TraceID string    `json:"trace_id"`
	Root    *SpanView `json:"root"`
}

// View snapshots the trace as a JSON-ready span tree, children in
// creation order. Returns nil on a nil trace.
func (t *Trace) View() *TraceView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &TraceView{TraceID: t.id, Root: t.root.view()}
}

// view renders a span and its subtree; the caller holds the trace lock.
func (s *Span) view() *SpanView {
	v := &SpanView{Name: s.name, StartUnixNs: s.start.UnixNano()}
	if s.end.IsZero() {
		v.InFlight = true
	} else {
		v.DurationNs = s.end.Sub(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			v.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		v.Children = append(v.Children, c.view())
	}
	return v
}

// Tracer keeps traces in a bounded ring keyed by ID: Start registers a
// new trace (evicting the oldest beyond capacity) and Get looks one up —
// in-flight or completed. A nil *Tracer is a disabled tracer: Start
// returns a nil (disabled) trace and Get finds nothing.
type Tracer struct {
	mu   sync.Mutex
	cap  int
	byID map[string]*Trace
	ring []string // insertion order, oldest first
}

// NewTracer returns a tracer retaining at most capacity traces
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{cap: capacity, byID: map[string]*Trace{}}
}

// Start creates and registers a trace whose root span begins now,
// evicting the oldest retained trace beyond capacity. Registering an ID
// twice replaces the earlier trace.
func (tr *Tracer) Start(id, rootName string) *Trace {
	return tr.StartAt(id, rootName, time.Now())
}

// StartAt is Start with an explicit root start instant.
func (tr *Tracer) StartAt(id, rootName string, at time.Time) *Trace {
	if tr == nil {
		return nil
	}
	t := NewTraceAt(id, rootName, at)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if _, dup := tr.byID[id]; !dup {
		tr.ring = append(tr.ring, id)
	}
	tr.byID[id] = t
	for len(tr.ring) > tr.cap {
		delete(tr.byID, tr.ring[0])
		tr.ring = tr.ring[1:]
	}
	return t
}

// Get looks a trace up by ID.
func (tr *Tracer) Get(id string) (*Trace, bool) {
	if tr == nil {
		return nil, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t, ok := tr.byID[id]
	return t, ok
}

// Len reports how many traces are retained.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.byID)
}
