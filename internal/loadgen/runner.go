package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/qserv"
	"repro/internal/target"
)

// Runner drives one scenario run against a qserv service — either a
// self-booted in-process qservd (the default) or an external one named
// by AttachURL.
type Runner struct {
	// AttachURL points the runner at an already running qservd (e.g.
	// "http://127.0.0.1:8080"). Empty boots a private service shaped by
	// the scenario's service block; self-booted services tear down with
	// a graceful drain.
	AttachURL string
	// DrainTimeout bounds the self-booted service's teardown drain
	// (default 30s).
	DrainTimeout time.Duration
	// SampleInterval is the queue-depth sampling period (default 100ms).
	SampleInterval time.Duration
	// TraceDir, when set, receives the span trees of every failed job
	// plus the slowest few, one JSON file each.
	TraceDir string
	// OpTimeout bounds one op's submit→result wait (default 60s).
	OpTimeout time.Duration
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...interface{})
}

func (r *Runner) logf(format string, args ...interface{}) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// maxInFlight caps concurrently outstanding open-loop ops (sockets and
// goroutines), not the arrival schedule itself.
const maxInFlight = 512

// readHeaderTimeout bounds how long the self-booted server waits for a
// request's headers, so a stalled client cannot hold a connection open.
const readHeaderTimeout = 10 * time.Second

// traceDumpSlowest is how many of the slowest jobs get their traces
// dumped alongside every failed job when TraceDir is set.
const traceDumpSlowest = 10

// Run generates the (scenario, seed) workload, replays it against the
// service and returns the evaluated report.
func (r *Runner) Run(s *Scenario, seed int64) (*RunReport, error) {
	w, err := GenerateWorkload(s, seed)
	if err != nil {
		return nil, err
	}
	base, shutdown, err := r.bootOrAttach(s, seed)
	if err != nil {
		return nil, err
	}
	defer shutdown()

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        maxInFlight,
			MaxIdleConnsPerHost: maxInFlight,
		},
		Timeout: 0, // per-request contexts bound the waits
	}
	defer client.CloseIdleConnections()
	run := &runState{
		r:      r,
		s:      s,
		base:   base,
		client: client,
		opTimeout: func() time.Duration {
			if r.OpTimeout > 0 {
				return r.OpTimeout
			}
			return 60 * time.Second
		}(),
	}
	if err := run.waitHealthy(); err != nil {
		return nil, err
	}

	metricsBefore, err := run.fetchMetrics()
	if err != nil {
		return nil, fmt.Errorf("loadgen: initial /metrics: %w", err)
	}
	// A service running with metrics disabled exposes no qserv families;
	// its report would be all zeros, so refuse to run against it.
	if _, ok := metricsBefore["qserv_jobs_submitted_total"]; !ok {
		return nil, fmt.Errorf("loadgen: %s/metrics has no qserv_jobs_submitted_total sample: the service runs with metrics disabled", base)
	}

	stopSampler := run.startQueueSampler()
	stopEvents := run.scheduleEvents()
	runStart := time.Now()
	var phases []PhaseMetrics
	var all []opResult
	for pi := range w.Phases {
		pw := &w.Phases[pi]
		phaseStart := time.Now()
		results := run.runPhase(pw)
		wallMs := float64(time.Since(phaseStart)) / float64(time.Millisecond)
		phases = append(phases, PhaseMetrics{Name: pw.Name, Metrics: buildBlock(results, wallMs)})
		all = append(all, results...)
		r.logf("phase %s: %d ops in %.0fms", pw.Name, len(results), wallMs)
	}
	totalWallMs := float64(time.Since(runStart)) / float64(time.Millisecond)
	stopEvents()
	maxQ, meanQ := stopSampler()

	metricsAfter, err := run.fetchMetrics()
	if err != nil {
		return nil, fmt.Errorf("loadgen: final /metrics: %w", err)
	}
	if r.TraceDir != "" {
		run.dumpTraces()
	}

	server := serverDelta(metricsBefore, metricsAfter)
	server.MaxQueueDepth, server.MeanQueue = maxQ, meanQ
	report := &RunReport{
		Scenario:       s.Name,
		Seed:           seed,
		WorkloadSHA256: w.SHA256(),
		DurationMs:     totalWallMs,
		Totals:         buildBlock(all, totalWallMs),
		Phases:         phases,
		Server:         server,
	}
	EvaluateSLO(s, report)
	return report, nil
}

// RunGate runs the scenario once per seed and folds the runs into the
// multi-seed gate verdict. A nil or empty seeds slice runs the
// scenario's own (normalized) seed list.
func (r *Runner) RunGate(s *Scenario, seeds []int64) (*GateReport, error) {
	if len(seeds) == 0 {
		seeds = s.Seeds
	}
	var runs []*RunReport
	for _, seed := range seeds {
		rep, err := r.Run(s, seed)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %s seed %d: %w", s.Name, seed, err)
		}
		r.logf("%s", FormatRun(rep))
		runs = append(runs, rep)
	}
	return Gate(s, runs), nil
}

// bootOrAttach returns the service base URL and a teardown func.
func (r *Runner) bootOrAttach(s *Scenario, seed int64) (string, func(), error) {
	if r.AttachURL != "" {
		return r.AttachURL, func() {}, nil
	}
	sv := s.Service
	cfg := qserv.Config{
		QueueSize:      sv.Queue,
		DefaultWorkers: sv.Workers,
		DefaultShots:   sv.Shots,
		CacheSize:      sv.Cache,
		Seed:           seed,
	}
	svc := qserv.DefaultService(cfg, sv.Qubits, sv.Workers)
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Stop()
		return "", nil, fmt.Errorf("loadgen: listen: %w", err)
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go func() { _ = srv.Serve(ln) }()
	drainTimeout := r.DrainTimeout
	if drainTimeout <= 0 {
		drainTimeout = 30 * time.Second
	}
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := svc.Drain(ctx); err != nil {
			r.logf("drain deadline exceeded; jobs may still be running: %v", err)
		}
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// runState is the per-run mutable context shared by the phase loops.
type runState struct {
	r         *Runner
	s         *Scenario
	base      string
	client    *http.Client
	opTimeout time.Duration

	mu sync.Mutex
	// sessions maps the workload's session index to the server ID.
	sessions map[int]string
	// slow tracks (jobID, latencyMs) of completed jobs for trace dumps;
	// failures are tracked separately so they always dump.
	slow   []jobLatency
	failed []string
}

type jobLatency struct {
	id        string
	latencyMs float64
}

func (rs *runState) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := rs.client.Get(rs.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: service at %s not healthy: %v", rs.base, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fetchMetrics scrapes the service's /metrics exposition into samples.
func (rs *runState) fetchMetrics() (map[string]float64, error) {
	resp, err := rs.client.Get(rs.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// startQueueSampler polls /metrics for the total queue depth; the
// returned stop func reports (max, mean) over the samples.
func (rs *runState) startQueueSampler() func() (int, float64) {
	interval := rs.r.SampleInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var maxQ int
	var sum float64
	var n int
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m, err := rs.fetchMetrics()
				if err != nil {
					continue
				}
				depth := int(obs.Sum(m, "qserv_queue_depth"))
				maxQ = max(maxQ, depth)
				sum += float64(depth)
				n++
			}
		}
	}()
	return func() (int, float64) {
		close(stop)
		<-done
		if n == 0 {
			return maxQ, 0
		}
		return maxQ, sum / float64(n)
	}
}

// scheduleEvents arms the scenario's fault injections relative to now.
func (rs *runState) scheduleEvents() func() {
	var timers []*time.Timer
	for i := range rs.s.Events {
		e := rs.s.Events[i]
		timers = append(timers, time.AfterFunc(time.Duration(e.AtMs)*time.Millisecond, func() {
			if err := rs.applyEvent(&e); err != nil {
				rs.r.logf("event %s@%dms failed: %v", e.Kind, e.AtMs, err)
			} else {
				rs.r.logf("event %s@%dms applied to %s", e.Kind, e.AtMs, e.Backend)
			}
		}))
	}
	return func() {
		for _, t := range timers {
			t.Stop()
		}
	}
}

// applyEvent injects one fault. Recalibrate fetches the backend's
// current calibration, scales every error rate by the drift factor and
// PUTs the drifted table back — rotating the backend's device hash and
// with it the full compile-cache keys.
func (rs *runState) applyEvent(e *EventSpec) error {
	resp, err := rs.client.Get(rs.base + "/backends")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var list struct {
		Backends []struct {
			Name   string         `json:"name"`
			Device *target.Device `json:"device"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return err
	}
	var cal *target.Calibration
	for _, b := range list.Backends {
		if b.Name == e.Backend && b.Device != nil {
			cal = b.Device.Calibration
			break
		}
	}
	if cal == nil {
		return fmt.Errorf("backend %q has no calibration to drift", e.Backend)
	}
	drifted := cal.Clone()
	clamp := func(p float64) float64 {
		p *= e.DriftFactor
		if p >= 1 {
			p = 0.999
		}
		return p
	}
	for i := range drifted.Qubits {
		q := &drifted.Qubits[i]
		q.ReadoutError = clamp(q.ReadoutError)
		q.SingleQubitError = clamp(q.SingleQubitError)
	}
	for i := range drifted.Edges {
		drifted.Edges[i].TwoQubitError = clamp(drifted.Edges[i].TwoQubitError)
	}
	body, err := json.Marshal(drifted)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, rs.base+"/backends/"+e.Backend+"/calibration", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	put, err := rs.client.Do(req)
	if err != nil {
		return err
	}
	defer put.Body.Close()
	if put.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(put.Body, 512))
		return fmt.Errorf("PUT calibration: %s: %s", put.Status, msg)
	}
	io.Copy(io.Discard, put.Body)
	return nil
}

// runPhase replays one phase's op stream and returns the op results.
// Open-loop ops fire at their generated offsets regardless of service
// progress; closed-loop lanes walk their op list serially until the
// phase deadline. Session opens run synchronously up front.
func (rs *runState) runPhase(pw *PhaseWorkload) []opResult {
	phase := indexOfPhase(rs.s, pw.Name)
	results := make([]opResult, 0, len(pw.Ops))
	var mu sync.Mutex
	record := func(res opResult) {
		mu.Lock()
		results = append(results, res)
		mu.Unlock()
	}
	ops := pw.Ops
	for len(ops) > 0 && ops[0].Kind == OpOpenSession {
		record(rs.execute(&ops[0], phase))
		ops = ops[1:]
	}
	start := time.Now()
	deadline := start.Add(time.Duration(pw.DurationMs) * time.Millisecond)
	var wg sync.WaitGroup
	if pw.Closed {
		lanes := map[int][]*Op{}
		var order []int
		for i := range ops {
			c := ops[i].Client
			if _, ok := lanes[c]; !ok {
				order = append(order, c)
			}
			lanes[c] = append(lanes[c], &ops[i])
		}
		sort.Ints(order)
		for _, c := range order {
			lane := lanes[c]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, op := range lane {
					if !time.Now().Before(deadline) {
						return
					}
					record(rs.execute(op, phase))
					if op.ThinkMs > 0 {
						time.Sleep(time.Duration(op.ThinkMs * float64(time.Millisecond)))
					}
				}
			}()
		}
	} else {
		sem := make(chan struct{}, maxInFlight)
		for i := range ops {
			op := &ops[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				at := start.Add(time.Duration(op.AtMs * float64(time.Millisecond)))
				time.Sleep(time.Until(at))
				sem <- struct{}{}
				defer func() { <-sem }()
				record(rs.execute(op, phase))
			}()
		}
	}
	wg.Wait()
	return results
}

func indexOfPhase(s *Scenario, name string) int {
	for i := range s.Phases {
		if s.Phases[i].Name == name {
			return i
		}
	}
	return -1
}

// execute issues one op and waits for its terminal state, returning the
// client-observed submit→result record.
func (rs *runState) execute(op *Op, phase int) opResult {
	res := opResult{phase: phase}
	begin := time.Now()
	finish := func() opResult {
		res.latencyMs = float64(time.Since(begin)) / float64(time.Millisecond)
		return res
	}
	switch op.Kind {
	case OpOpenSession:
		body := map[string]interface{}{
			"name":    op.Name,
			"cqasm":   op.CQASM,
			"backend": op.Backend,
			"shots":   op.Shots,
		}
		status, data, err := rs.post("/sessions", body)
		switch {
		case err != nil || status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests:
			res.rejected = true
		case status != http.StatusCreated:
			res.failed = true
		default:
			var view struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(data, &view) == nil && view.ID != "" {
				rs.mu.Lock()
				if rs.sessions == nil {
					rs.sessions = map[int]string{}
				}
				rs.sessions[op.Session] = view.ID
				rs.mu.Unlock()
				res.ok = true
			} else {
				res.failed = true
			}
		}
		return finish()
	case OpBind:
		rs.mu.Lock()
		sid := rs.sessions[op.Session]
		rs.mu.Unlock()
		if sid == "" {
			res.failed = true
			return finish()
		}
		body := map[string]interface{}{
			"name":   op.Name,
			"values": op.Values,
			"shots":  op.Shots,
			"seed":   op.Seed,
		}
		return rs.submitAndAwait("/sessions/"+sid+"/bind", body, begin, res)
	default: // OpSubmit
		body := map[string]interface{}{
			"name":    op.Name,
			"cqasm":   op.CQASM,
			"backend": op.Backend,
			"shots":   op.Shots,
			"seed":    op.Seed,
		}
		return rs.submitAndAwait("/submit", body, begin, res)
	}
}

// submitAndAwait posts a job-producing request and long-polls the job to
// a terminal state.
func (rs *runState) submitAndAwait(path string, body interface{}, begin time.Time, res opResult) opResult {
	finish := func() opResult {
		res.latencyMs = float64(time.Since(begin)) / float64(time.Millisecond)
		return res
	}
	status, data, err := rs.post(path, body)
	switch {
	case err != nil:
		res.failed = true
		return finish()
	case status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests:
		res.rejected = true
		return finish()
	case status != http.StatusAccepted:
		res.failed = true
		return finish()
	}
	var sub struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(data, &sub) != nil || sub.ID == "" {
		res.failed = true
		return finish()
	}
	deadline := time.Now().Add(rs.opTimeout)
	for {
		resp, err := rs.client.Get(rs.base + "/jobs/" + sub.ID + "?wait=2s")
		if err != nil {
			res.failed = true
			return finish()
		}
		view := struct {
			Status string `json:"status"`
		}{}
		err = json.NewDecoder(resp.Body).Decode(&view)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			res.failed = true
			return finish()
		}
		switch view.Status {
		case "done":
			res.ok = true
			out := finish()
			rs.trackJob(sub.ID, out.latencyMs, false)
			return out
		case "failed":
			res.failed = true
			out := finish()
			rs.trackJob(sub.ID, out.latencyMs, true)
			return out
		}
		if time.Now().After(deadline) {
			res.failed = true
			out := finish()
			rs.trackJob(sub.ID, out.latencyMs, true)
			return out
		}
	}
}

func (rs *runState) post(path string, body interface{}) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := rs.client.Post(rs.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

// trackJob records a completed job for the post-run trace dump.
func (rs *runState) trackJob(id string, latencyMs float64, failed bool) {
	if rs.r.TraceDir == "" {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if failed {
		rs.failed = append(rs.failed, id)
		return
	}
	rs.slow = append(rs.slow, jobLatency{id: id, latencyMs: latencyMs})
}

// dumpTraces writes the span trees of every failed job and the slowest
// completed jobs into TraceDir.
func (rs *runState) dumpTraces() {
	rs.mu.Lock()
	failed := append([]string(nil), rs.failed...)
	slow := append([]jobLatency(nil), rs.slow...)
	rs.mu.Unlock()
	sort.Slice(slow, func(i, j int) bool { return slow[i].latencyMs > slow[j].latencyMs })
	if len(slow) > traceDumpSlowest {
		slow = slow[:traceDumpSlowest]
	}
	ids := failed
	for _, jl := range slow {
		ids = append(ids, jl.id)
	}
	if len(ids) == 0 {
		return
	}
	if err := os.MkdirAll(rs.r.TraceDir, 0o755); err != nil {
		rs.r.logf("trace dir: %v", err)
		return
	}
	for _, id := range ids {
		resp, err := rs.client.Get(rs.base + "/jobs/" + id + "/trace")
		if err != nil {
			continue
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			continue
		}
		path := filepath.Join(rs.r.TraceDir, id+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			rs.r.logf("trace dump %s: %v", path, err)
		}
	}
}
