package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// FieldError locates a scenario defect by the exact JSON field path that
// caused it ("phases[0].mix[1].class", "slo.p95_ms", …), so a broken
// scenario file points straight at the offending line instead of failing
// deep inside the generator.
type FieldError struct {
	// Path is the JSON field path of the defect, dotted with [i] array
	// indices, relative to the document root.
	Path string
	// Msg describes the defect.
	Msg string
}

func (e *FieldError) Error() string { return e.Path + ": " + e.Msg }

func fieldErrf(path, format string, args ...interface{}) error {
	return &FieldError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Arrival processes.
const (
	// ArrivalPoisson is the open-loop process: exponentially distributed
	// inter-arrival gaps at rate_per_sec, submitted regardless of how the
	// service keeps up — latency under overload is visible, not hidden by
	// client back-pressure (coordinated omission).
	ArrivalPoisson = "poisson"
	// ArrivalClosed is the closed-loop process: clients issue one request
	// at a time and sleep think_ms between completion and the next
	// submission, the interactive-user model.
	ArrivalClosed = "closed"
)

// Scenario is one declarative load experiment: a service shape, a tenant
// population, an ordered list of traffic phases, optional mid-run fault
// events, and the SLO block the run is gated on. Scenarios are stored as
// scenarios/*.json and are fully deterministic: one (scenario, seed)
// pair generates one byte-identical workload.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seeds are the PRNG seeds a gate run evaluates; empty defaults to
	// the BLIS standard triple {42, 123, 456}.
	Seeds []int64 `json:"seeds,omitempty"`
	// Service shapes the self-booted qservd when the runner is not
	// attached to an external one.
	Service *ServiceSpec `json:"service,omitempty"`
	// Tenants is the weighted multi-tenant population ops are drawn from;
	// empty defaults to a single "default" tenant.
	Tenants []TenantSpec `json:"tenants,omitempty"`
	Phases  []PhaseSpec  `json:"phases"`
	// Events are mid-run fault injections, timed relative to run start.
	Events []EventSpec `json:"events,omitempty"`
	SLO    SLOSpec     `json:"slo"`
}

// ServiceSpec shapes the in-process qservd a non-attached run boots.
type ServiceSpec struct {
	// Qubits sizes the perfect stack (default 10).
	Qubits int `json:"qubits,omitempty"`
	// Workers per backend pool (default 2).
	Workers int `json:"workers,omitempty"`
	// Queue bounds each backend's job queue (default 256); shrink it to
	// provoke back-pressure rejections.
	Queue int `json:"queue,omitempty"`
	// Cache bounds the full-artefact compile cache (default 512;
	// negative disables).
	Cache int `json:"cache,omitempty"`
	// Shots is the service default per gate job (default 1024; per-op
	// shots usually override it).
	Shots int `json:"shots,omitempty"`
}

// TenantSpec is one tenant of the weighted multi-tenant mix.
type TenantSpec struct {
	Name string `json:"name"`
	// Weight is the tenant's share of generated ops (default 1).
	Weight float64 `json:"weight,omitempty"`
}

// PhaseSpec is one traffic phase. Phases run strictly in order with a
// completion barrier between them, so cache-cold and cache-hot phases
// (or pre- and post-drift phases) measure separately.
type PhaseSpec struct {
	Name       string      `json:"name"`
	DurationMs int         `json:"duration_ms"`
	Arrival    ArrivalSpec `json:"arrival"`
	// Mix is the weighted circuit-class mix of an ordinary phase; empty
	// only for session phases, whose ops are binds.
	Mix []MixSpec `json:"mix,omitempty"`
	// Sessions turns the phase into a bind storm: Count variational
	// sessions open at phase start and every generated op is a bind
	// against one of them.
	Sessions *SessionSpec `json:"sessions,omitempty"`
}

// ArrivalSpec selects the phase's arrival process.
type ArrivalSpec struct {
	Process    string  `json:"process"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Clients and ThinkMs shape the closed-loop process.
	Clients int     `json:"clients,omitempty"`
	ThinkMs float64 `json:"think_ms,omitempty"`
}

// MixSpec is one weighted circuit class of a phase's traffic mix.
type MixSpec struct {
	// Class is one of the workload circuit classes; see ClassNames.
	Class  string  `json:"class"`
	Weight float64 `json:"weight,omitempty"`
	// Qubits sizes the circuit (class-specific default; for "qec" it is
	// the surface-code distance, odd ≥ 3).
	Qubits int `json:"qubits,omitempty"`
	// Depth is the layer count for "random" and "qaoa".
	Depth int `json:"depth,omitempty"`
	// Variants is the number of distinct circuit instances ops of this
	// entry draw from: 1 makes the class perfectly cache-hot, a large
	// value keeps the compile cache cold (default 4).
	Variants int `json:"variants,omitempty"`
	// Backend routes the ops ("perfect" when empty).
	Backend string `json:"backend,omitempty"`
	Shots   int    `json:"shots,omitempty"`
}

// SessionSpec shapes a bind-storm phase: Count sessions over a
// depth-Layers parametric QAOA ansatz on Qubits variables.
type SessionSpec struct {
	Count   int    `json:"count"`
	Layers  int    `json:"layers,omitempty"`
	Qubits  int    `json:"qubits,omitempty"`
	Backend string `json:"backend,omitempty"`
	Shots   int    `json:"shots,omitempty"`
}

// Event kinds.
const (
	// EventRecalibrate replaces a backend's calibration mid-run via
	// PUT /backends/{name}/calibration, with every error rate scaled by
	// drift_factor — the calibration-drift fault. The new device hash
	// rotates the full compile-cache keys, so the post-drift traffic
	// recompiles (prefix artefacts stay live).
	EventRecalibrate = "recalibrate"
)

// EventSpec is one mid-run fault injection.
type EventSpec struct {
	// AtMs is the injection time relative to run start (phase durations
	// accumulate).
	AtMs int    `json:"at_ms"`
	Kind string `json:"kind"`
	// Backend names the target backend (recalibrate).
	Backend string `json:"backend"`
	// DriftFactor scales every calibration error rate (default 2.0);
	// results are clamped below 1.
	DriftFactor float64 `json:"drift_factor,omitempty"`
}

// SLOSpec is the scenario's declarative service-level objective block,
// evaluated per seed and gated BLIS-style: every bound must hold in
// every seed (directional consistency — one contradicting seed fails
// the gate).
type SLOSpec struct {
	// P50Ms/P95Ms/P99Ms are client-observed submit→result latency
	// ceilings in milliseconds. P95Ms is required — a scenario without a
	// tail-latency objective gates nothing.
	P50Ms *float64 `json:"p50_ms,omitempty"`
	P95Ms *float64 `json:"p95_ms"`
	P99Ms *float64 `json:"p99_ms,omitempty"`
	// MaxErrorRate bounds failed jobs / completed jobs; required.
	MaxErrorRate *float64 `json:"max_error_rate"`
	// MaxRejectRate bounds back-pressure rejections (HTTP 429/503) /
	// submit attempts.
	MaxRejectRate *float64 `json:"max_reject_rate,omitempty"`
	// MinFullHitRate / MinPrefixHitRate floor the two compile-cache
	// levels' hit rates over the run (computed as deltas, so attached
	// services gate on this run's traffic only).
	MinFullHitRate   *float64 `json:"min_full_hit_rate,omitempty"`
	MinPrefixHitRate *float64 `json:"min_prefix_hit_rate,omitempty"`
	// MaxQueueDepth ceilings the maximum sampled service queue depth.
	MaxQueueDepth *int `json:"max_queue_depth,omitempty"`
	// Compare are cross-phase hypotheses in the BLIS A-vs-B form: the
	// "better" phase must beat the "worse" phase on the metric by at
	// least min_effect in every seed.
	Compare []CompareSpec `json:"compare,omitempty"`
}

// CompareSpec is one cross-phase hypothesis: metric(better) must undercut
// metric(worse) by min_effect (relative, default 0.20 — the BLIS >20%
// effect-size standard) in every seed.
type CompareSpec struct {
	// Metric is one of p50_ms, p95_ms, p99_ms, mean_ms.
	Metric string `json:"metric"`
	// Better and Worse name phases of the scenario.
	Better string `json:"better"`
	Worse  string `json:"worse"`
	// MinEffect is the required relative improvement
	// (worse−better)/worse; default 0.20.
	MinEffect float64 `json:"min_effect,omitempty"`
}

// classDefault describes one workload circuit class's default shape and
// the bounds validation enforces.
type classDefault struct {
	qubits, depth        int
	minQubits, maxQubits int
	note                 string
}

var classDefaults = map[string]classDefault{
	"qft":    {qubits: 5, minQubits: 2, maxQubits: 16},
	"ghz":    {qubits: 8, minQubits: 2, maxQubits: 20},
	"random": {qubits: 5, depth: 4, minQubits: 2, maxQubits: 12},
	"grover": {qubits: 3, minQubits: 2, maxQubits: 3, note: "the gate-level Grover builder supports 2 or 3 qubits"},
	"qaoa":   {qubits: 6, depth: 2, minQubits: 2, maxQubits: 12},
	"qec":    {qubits: 3, minQubits: 3, maxQubits: 7, note: "qubits is the surface-code distance, odd"},
	"genome": {qubits: 7, minQubits: 5, maxQubits: 16},
}

// ClassNames returns the workload circuit classes, sorted.
func ClassNames() []string {
	names := make([]string, 0, len(classDefaults))
	for name := range classDefaults {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// compareMetrics are the metrics CompareSpec may reference, sorted.
var compareMetrics = []string{"mean_ms", "p50_ms", "p95_ms", "p99_ms"}

// ParseScenario decodes and validates one scenario document. Unknown
// JSON fields are rejected (typos in scenario files must not silently
// generate the wrong workload), and every validation failure is a
// *FieldError carrying the exact field path.
func ParseScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("loadgen: scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.normalize()
	return &s, nil
}

// LoadScenario reads and parses a scenario file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseScenario(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Validate checks the raw document, returning a *FieldError naming the
// first offending field by exact path.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fieldErrf("name", "missing required field")
	}
	for _, seed := range s.Seeds {
		if seed == 0 {
			return fieldErrf("seeds", "seed 0 is reserved for per-job derivation; use a non-zero seed")
		}
	}
	if sv := s.Service; sv != nil {
		if sv.Qubits < 0 || sv.Qubits > 20 {
			return fieldErrf("service.qubits", "must be between 0 (default) and 20, got %d", sv.Qubits)
		}
		if sv.Workers < 0 {
			return fieldErrf("service.workers", "must be non-negative, got %d", sv.Workers)
		}
		if sv.Queue < 0 {
			return fieldErrf("service.queue", "must be non-negative, got %d", sv.Queue)
		}
	}
	seenTenant := map[string]bool{}
	for i, t := range s.Tenants {
		path := fmt.Sprintf("tenants[%d]", i)
		if t.Name == "" {
			return fieldErrf(path+".name", "missing required field")
		}
		if seenTenant[t.Name] {
			return fieldErrf(path+".name", "duplicate tenant %q", t.Name)
		}
		seenTenant[t.Name] = true
		if t.Weight < 0 {
			return fieldErrf(path+".weight", "must be non-negative, got %v", t.Weight)
		}
	}
	if len(s.Phases) == 0 {
		return fieldErrf("phases", "scenario needs at least one phase")
	}
	seenPhase := map[string]bool{}
	for i, p := range s.Phases {
		if err := p.validate(fmt.Sprintf("phases[%d]", i), seenPhase); err != nil {
			return err
		}
	}
	total := 0
	for _, p := range s.Phases {
		total += p.DurationMs
	}
	for i, e := range s.Events {
		path := fmt.Sprintf("events[%d]", i)
		if e.Kind != EventRecalibrate {
			return fieldErrf(path+".kind", "unknown event kind %q (known: %s)", e.Kind, EventRecalibrate)
		}
		if e.Backend == "" {
			return fieldErrf(path+".backend", "missing required field")
		}
		if e.AtMs < 0 || e.AtMs >= total {
			return fieldErrf(path+".at_ms", "must fall inside the run (0..%dms), got %d", total, e.AtMs)
		}
		if e.DriftFactor < 0 {
			return fieldErrf(path+".drift_factor", "must be non-negative, got %v", e.DriftFactor)
		}
	}
	return s.SLO.validate("slo", seenPhase)
}

func (p *PhaseSpec) validate(path string, seen map[string]bool) error {
	if p.Name == "" {
		return fieldErrf(path+".name", "missing required field")
	}
	if seen[p.Name] {
		return fieldErrf(path+".name", "duplicate phase %q", p.Name)
	}
	seen[p.Name] = true
	if p.DurationMs <= 0 {
		return fieldErrf(path+".duration_ms", "must be positive, got %d", p.DurationMs)
	}
	switch p.Arrival.Process {
	case ArrivalPoisson:
		if p.Arrival.RatePerSec <= 0 {
			return fieldErrf(path+".arrival.rate_per_sec", "must be positive for the poisson process, got %v", p.Arrival.RatePerSec)
		}
	case ArrivalClosed:
		if p.Arrival.Clients <= 0 {
			return fieldErrf(path+".arrival.clients", "must be positive for the closed process, got %d", p.Arrival.Clients)
		}
		if p.Arrival.ThinkMs < 0 {
			return fieldErrf(path+".arrival.think_ms", "must be non-negative, got %v", p.Arrival.ThinkMs)
		}
	case "":
		return fieldErrf(path+".arrival.process", "missing required field (want %q or %q)", ArrivalPoisson, ArrivalClosed)
	default:
		return fieldErrf(path+".arrival.process", "unknown arrival process %q (want %q or %q)", p.Arrival.Process, ArrivalPoisson, ArrivalClosed)
	}
	if p.Sessions != nil {
		if len(p.Mix) > 0 {
			return fieldErrf(path+".mix", "session phases generate bind ops; mix must be empty")
		}
		ss := p.Sessions
		if ss.Count <= 0 {
			return fieldErrf(path+".sessions.count", "must be positive, got %d", ss.Count)
		}
		if ss.Layers < 0 {
			return fieldErrf(path+".sessions.layers", "must be non-negative, got %d", ss.Layers)
		}
		if ss.Qubits < 0 || (ss.Qubits > 0 && (ss.Qubits < 2 || ss.Qubits > 12)) {
			return fieldErrf(path+".sessions.qubits", "must be between 2 and 12, got %d", ss.Qubits)
		}
		if ss.Shots < 0 {
			return fieldErrf(path+".sessions.shots", "must be non-negative, got %d", ss.Shots)
		}
		return nil
	}
	if len(p.Mix) == 0 {
		return fieldErrf(path+".mix", "phase needs at least one mix entry (or a sessions block)")
	}
	for j, m := range p.Mix {
		if err := m.validate(fmt.Sprintf("%s.mix[%d]", path, j)); err != nil {
			return err
		}
	}
	return nil
}

func (m *MixSpec) validate(path string) error {
	def, ok := classDefaults[m.Class]
	if !ok {
		if m.Class == "" {
			return fieldErrf(path+".class", "missing required field (known classes: %s)", strings.Join(ClassNames(), ", "))
		}
		return fieldErrf(path+".class", "unknown circuit class %q (known: %s)", m.Class, strings.Join(ClassNames(), ", "))
	}
	if m.Weight < 0 {
		return fieldErrf(path+".weight", "must be non-negative, got %v", m.Weight)
	}
	if m.Qubits != 0 {
		if m.Qubits < def.minQubits || m.Qubits > def.maxQubits {
			msg := fmt.Sprintf("must be between %d and %d for class %q, got %d", def.minQubits, def.maxQubits, m.Class, m.Qubits)
			if def.note != "" {
				msg += " (" + def.note + ")"
			}
			return fieldErrf(path+".qubits", "%s", msg)
		}
		if m.Class == "qec" && m.Qubits%2 == 0 {
			return fieldErrf(path+".qubits", "surface-code distance must be odd, got %d", m.Qubits)
		}
	}
	if m.Depth < 0 {
		return fieldErrf(path+".depth", "must be non-negative, got %d", m.Depth)
	}
	if m.Variants < 0 {
		return fieldErrf(path+".variants", "must be non-negative, got %d", m.Variants)
	}
	if m.Shots < 0 {
		return fieldErrf(path+".shots", "must be non-negative, got %d", m.Shots)
	}
	return nil
}

func (o *SLOSpec) validate(path string, phases map[string]bool) error {
	if o.P95Ms == nil {
		return fieldErrf(path+".p95_ms", "missing required field (a scenario must declare a tail-latency objective)")
	}
	if o.MaxErrorRate == nil {
		return fieldErrf(path+".max_error_rate", "missing required field")
	}
	ceilings := []struct {
		name string
		v    *float64
	}{
		{"p50_ms", o.P50Ms}, {"p95_ms", o.P95Ms}, {"p99_ms", o.P99Ms},
	}
	for _, c := range ceilings {
		if c.v != nil && *c.v <= 0 {
			return fieldErrf(path+"."+c.name, "must be positive, got %v", *c.v)
		}
	}
	rates := []struct {
		name string
		v    *float64
	}{
		{"max_error_rate", o.MaxErrorRate}, {"max_reject_rate", o.MaxRejectRate},
		{"min_full_hit_rate", o.MinFullHitRate}, {"min_prefix_hit_rate", o.MinPrefixHitRate},
	}
	for _, r := range rates {
		if r.v != nil && (*r.v < 0 || *r.v > 1) {
			return fieldErrf(path+"."+r.name, "must be a rate in [0, 1], got %v", *r.v)
		}
	}
	if o.MaxQueueDepth != nil && *o.MaxQueueDepth < 0 {
		return fieldErrf(path+".max_queue_depth", "must be non-negative, got %d", *o.MaxQueueDepth)
	}
	for i, c := range o.Compare {
		cpath := fmt.Sprintf("%s.compare[%d]", path, i)
		known := false
		for _, m := range compareMetrics {
			if c.Metric == m {
				known = true
				break
			}
		}
		if !known {
			return fieldErrf(cpath+".metric", "unknown metric %q (known: %s)", c.Metric, strings.Join(compareMetrics, ", "))
		}
		if !phases[c.Better] {
			return fieldErrf(cpath+".better", "unknown phase %q", c.Better)
		}
		if !phases[c.Worse] {
			return fieldErrf(cpath+".worse", "unknown phase %q", c.Worse)
		}
		if c.Better == c.Worse {
			return fieldErrf(cpath+".worse", "better and worse name the same phase %q", c.Worse)
		}
		if c.MinEffect < 0 || c.MinEffect >= 1 {
			return fieldErrf(cpath+".min_effect", "must be in [0, 1), got %v", c.MinEffect)
		}
	}
	return nil
}

// normalize fills defaults into a validated scenario, so the generator
// and runner never re-derive them.
func (s *Scenario) normalize() {
	if len(s.Seeds) == 0 {
		// The BLIS standard seed triple.
		s.Seeds = []int64{42, 123, 456}
	}
	if s.Service == nil {
		s.Service = &ServiceSpec{}
	}
	sv := s.Service
	if sv.Qubits == 0 {
		sv.Qubits = 10
	}
	if sv.Workers == 0 {
		sv.Workers = 2
	}
	if sv.Queue == 0 {
		sv.Queue = 256
	}
	if sv.Cache == 0 {
		sv.Cache = 512
	}
	if sv.Shots == 0 {
		sv.Shots = 1024
	}
	if len(s.Tenants) == 0 {
		s.Tenants = []TenantSpec{{Name: "default", Weight: 1}}
	}
	for i := range s.Tenants {
		if s.Tenants[i].Weight == 0 {
			s.Tenants[i].Weight = 1
		}
	}
	for i := range s.Phases {
		p := &s.Phases[i]
		if ss := p.Sessions; ss != nil {
			if ss.Layers == 0 {
				ss.Layers = 2
			}
			if ss.Qubits == 0 {
				ss.Qubits = 6
			}
			if ss.Backend == "" {
				ss.Backend = "perfect"
			}
			if ss.Shots == 0 {
				ss.Shots = 64
			}
		}
		for j := range p.Mix {
			m := &p.Mix[j]
			def := classDefaults[m.Class]
			if m.Weight == 0 {
				m.Weight = 1
			}
			if m.Qubits == 0 {
				m.Qubits = def.qubits
			}
			if m.Depth == 0 {
				m.Depth = def.depth
			}
			if m.Variants == 0 {
				m.Variants = 4
			}
			if m.Backend == "" {
				m.Backend = "perfect"
			}
			if m.Shots == 0 {
				m.Shots = 64
			}
		}
	}
	for i := range s.Events {
		if s.Events[i].DriftFactor == 0 {
			s.Events[i].DriftFactor = 2
		}
	}
	for i := range s.SLO.Compare {
		if s.SLO.Compare[i].MinEffect == 0 {
			// The BLIS >20% effect-size standard.
			s.SLO.Compare[i].MinEffect = 0.20
		}
	}
}

// TotalDurationMs returns the sum of the phase durations.
func (s *Scenario) TotalDurationMs() int {
	total := 0
	for _, p := range s.Phases {
		total += p.DurationMs
	}
	return total
}
