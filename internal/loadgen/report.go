package loadgen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// MetricsBlock is the client-side view of a slice of ops (one phase, or
// the whole run). Latency is submit→result: from the POST leaving the
// client to the job reaching a terminal state.
type MetricsBlock struct {
	Ops      int `json:"ops"`
	OK       int `json:"ok"`
	Failed   int `json:"failed"`
	Rejected int `json:"rejected"`
	// ErrorRate counts jobs that were admitted but failed (or whose
	// result never arrived) over all ops.
	ErrorRate float64 `json:"error_rate"`
	// RejectRate counts 429/503 backpressure rejections over all ops.
	RejectRate float64 `json:"reject_rate"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MeanMs     float64 `json:"mean_ms"`
	MaxMs      float64 `json:"max_ms"`
	// ThroughputPerSec is completed ops per second of phase wall time.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
}

// PhaseMetrics is one phase's MetricsBlock, ordered as the scenario
// declares the phases.
type PhaseMetrics struct {
	Name    string       `json:"name"`
	Metrics MetricsBlock `json:"metrics"`
}

// ServerMetrics is the server-side delta between the /metrics snapshots
// taken at run start and run end, plus queue-depth samples polled during
// the run.
type ServerMetrics struct {
	// FullHitRate / PrefixHitRate are delta hit rates over the run (hits
	// gained / lookups gained), not lifetime averages — attach mode would
	// otherwise dilute the scenario's own behaviour.
	FullHitRate   float64 `json:"full_hit_rate"`
	PrefixHitRate float64 `json:"prefix_hit_rate"`
	JobsDone      uint64  `json:"jobs_done"`
	JobsFailed    uint64  `json:"jobs_failed"`
	MaxQueueDepth int     `json:"max_queue_depth"`
	MeanQueue     float64 `json:"mean_queue_depth"`
	// EngineDispatch is the delta of qserv_engine_dispatch_total by
	// engine label.
	EngineDispatch map[string]float64 `json:"engine_dispatch,omitempty"`
}

// RunReport is the machine-readable result of one (scenario, seed) run.
type RunReport struct {
	Scenario       string         `json:"scenario"`
	Seed           int64          `json:"seed"`
	WorkloadSHA256 string         `json:"workload_sha256"`
	DurationMs     float64        `json:"duration_ms"`
	Totals         MetricsBlock   `json:"totals"`
	Phases         []PhaseMetrics `json:"phases"`
	Server         ServerMetrics  `json:"server"`
	SLO            SLOResult      `json:"slo"`
}

// opResult is the runner's record of one completed op.
type opResult struct {
	phase     int
	latencyMs float64
	ok        bool
	rejected  bool
	failed    bool
}

// percentile returns the nearest-rank percentile of sorted (ascending)
// latencies; p in (0,100].
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// buildBlock computes a MetricsBlock over a set of op results.
func buildBlock(results []opResult, wallMs float64) MetricsBlock {
	b := MetricsBlock{Ops: len(results)}
	var lat []float64
	sum := 0.0
	for _, r := range results {
		switch {
		case r.rejected:
			b.Rejected++
		case r.failed:
			b.Failed++
		default:
			b.OK++
			lat = append(lat, r.latencyMs)
			sum += r.latencyMs
		}
	}
	if b.Ops > 0 {
		b.ErrorRate = float64(b.Failed) / float64(b.Ops)
		b.RejectRate = float64(b.Rejected) / float64(b.Ops)
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		b.P50Ms = percentile(lat, 50)
		b.P95Ms = percentile(lat, 95)
		b.P99Ms = percentile(lat, 99)
		b.MeanMs = sum / float64(len(lat))
		b.MaxMs = lat[len(lat)-1]
	}
	if wallMs > 0 {
		b.ThroughputPerSec = float64(b.OK) / (wallMs / 1000)
	}
	return b
}

// serverDelta computes the report's server block from the /metrics
// samples taken at run start and run end; the queue-depth fields come
// from the sampler instead.
func serverDelta(before, after map[string]float64) ServerMetrics {
	grown := func(name string, pairs ...string) float64 {
		return obs.Sum(after, name, pairs...) - obs.Sum(before, name, pairs...)
	}
	hitRate := func(level string) float64 {
		hits := grown("qserv_compile_cache_ops_total", `level="`+level+`"`, `op="hit"`)
		misses := grown("qserv_compile_cache_ops_total", `level="`+level+`"`, `op="miss"`)
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	sm := ServerMetrics{
		FullHitRate:   hitRate("full"),
		PrefixHitRate: hitRate("prefix"),
		JobsDone:      uint64(grown("qserv_jobs_completed_total", `status="done"`)),
		JobsFailed:    uint64(grown("qserv_jobs_completed_total", `status="failed"`)),
	}
	const dispatch = `qserv_engine_dispatch_total{engine="`
	for series, v := range after {
		engine, ok := strings.CutPrefix(series, dispatch)
		if d := v - before[series]; ok && d > 0 {
			if sm.EngineDispatch == nil {
				sm.EngineDispatch = map[string]float64{}
			}
			sm.EngineDispatch[strings.TrimSuffix(engine, `"}`)] = d
		}
	}
	return sm
}

// FormatRun renders a terse human-readable summary of a run report.
func FormatRun(r *RunReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d ops=%d ok=%d failed=%d rejected=%d p50=%.1fms p95=%.1fms p99=%.1fms err=%.3f rej=%.3f full-hit=%.2f prefix-hit=%.2f maxq=%d",
		r.Scenario, r.Seed, r.Totals.Ops, r.Totals.OK, r.Totals.Failed, r.Totals.Rejected,
		r.Totals.P50Ms, r.Totals.P95Ms, r.Totals.P99Ms,
		r.Totals.ErrorRate, r.Totals.RejectRate,
		r.Server.FullHitRate, r.Server.PrefixHitRate, r.Server.MaxQueueDepth)
	if len(r.Server.EngineDispatch) > 0 {
		engines := make([]string, 0, len(r.Server.EngineDispatch))
		for e := range r.Server.EngineDispatch {
			engines = append(engines, e)
		}
		sort.Strings(engines)
		b.WriteString(" dispatch=")
		for i, e := range engines {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%.0f", e, r.Server.EngineDispatch[e])
		}
	}
	if r.SLO.Pass {
		b.WriteString(" SLO=pass")
	} else {
		fmt.Fprintf(&b, " SLO=FAIL(%d)", len(r.SLO.Violations))
	}
	return b.String()
}
