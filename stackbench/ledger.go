package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// span mirrors one node of the span tree GET /jobs/{id}/trace serves.
type span struct {
	Name       string  `json:"name"`
	DurationNs int64   `json:"duration_ns"`
	Children   []*span `json:"children"`
}

// child returns the first child span with one of the names, or nil.
func (s *span) child(names ...string) *span {
	if s == nil {
		return nil
	}
	for _, c := range s.Children {
		for _, n := range names {
			if c.Name == n {
				return c
			}
		}
	}
	return nil
}

func (s *span) ns() int64 {
	if s == nil {
		return 0
	}
	return s.DurationNs
}

// Ledger rows, reported as the mean per job in milliseconds. All but
// http_submit_ms partition the client latency: delivery_gap_ms (client
// latency minus the server's root span: HTTP transport, JSON and the
// long-poll wake-up) plus the server span's queue.wait and run children,
// where run splits into prepare (compile or session bind), execute and
// run_other (cQASM parsing and stack resolution ahead of prepare), and
// execute splits into engine (the time the engine reports for the shots)
// and execute_other (engine dispatch and result conversion).
// http_submit_ms is the client's POST round trip, which overlaps the
// start of the server span.
var ledgerRows = []string{
	"http_submit_ms", "queue_wait_ms", "prepare_ms", "run_other_ms",
	"execute_other_ms", "engine_ms", "server_ms", "delivery_gap_ms",
}

// jobLedger splits one job's latency by layer, in nanoseconds, in
// ledgerRows order.
func jobLedger(root *span, s sample) []int64 {
	run := root.child("run")
	prep := run.child("compile", "bind")
	exec := run.child("execute")
	eng := exec.child("engine")
	return []int64{
		s.submit.Nanoseconds(),
		root.child("queue.wait").ns(),
		prep.ns(),
		run.ns() - prep.ns() - exec.ns(),
		exec.ns() - eng.ns(),
		eng.ns(),
		root.ns(),
		s.total.Nanoseconds() - root.ns(),
	}
}

// ledger fetches the traces of the most recent samples, at most limit of
// them, and returns each ledger row's mean in milliseconds.
func ledger(c *client, samples []sample, limit int) (map[string]metric, error) {
	recent := append([]sample(nil), samples...)
	sort.Slice(recent, func(i, j int) bool { return recent[i].end.Before(recent[j].end) })
	if len(recent) > limit {
		recent = recent[len(recent)-limit:]
	}
	sums := make([]int64, len(ledgerRows))
	for _, s := range recent {
		var tr struct {
			Root *span `json:"root"`
		}
		if err := c.callJSON("GET", "/jobs/"+s.job+"/trace", nil, 200, &tr); err != nil {
			return nil, err
		}
		for k, v := range jobLedger(tr.Root, s) {
			sums[k] += v
		}
	}
	out := make(map[string]metric, len(ledgerRows))
	for k, name := range ledgerRows {
		out[name] = metric{float64(sums[k]) / float64(len(recent)) / 1e6, "ms"}
	}
	return out, nil
}

// scrape reads the service's Prometheus exposition as series → value,
// the series keyed by its name and label set as exposed.
func scrape(c *client) (map[string]float64, error) {
	data, err := c.call("GET", "/metrics", nil, 200)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// delta sums, over the series of family name carrying every given label
// pair, how much they grew from before to after.
func delta(before, after map[string]float64, name string, labels ...string) float64 {
	var d float64
	for series, v := range after {
		if series != name && !strings.HasPrefix(series, name+"{") {
			continue
		}
		matched := true
		for _, l := range labels {
			matched = matched && strings.Contains(series, l)
		}
		if matched {
			d += v - before[series]
		}
	}
	return d
}

// cacheMetrics reports, over the measured window, the hit share of both
// compile-cache levels and the share of jobs the auto engine sent to the
// stabilizer tableau. A share with no lookups behind it reads 0.
func cacheMetrics(before, after map[string]float64) map[string]metric {
	pct := func(part, whole float64) metric {
		if whole == 0 {
			return metric{0, "%"}
		}
		return metric{100 * part / whole, "%"}
	}
	const ops, engines = "qserv_compile_cache_ops_total", "qserv_engine_dispatch_total"
	out := map[string]metric{}
	for _, level := range []string{"full", "prefix"} {
		lvl := `level="` + level + `"`
		out[level+"_cache_hit_pct"] = pct(delta(before, after, ops, lvl, `op="hit"`), delta(before, after, ops, lvl))
	}
	out["stabilizer_pct"] = pct(delta(before, after, engines, `engine="stabilizer"`), delta(before, after, engines))
	return out
}
