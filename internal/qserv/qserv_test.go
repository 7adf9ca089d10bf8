package qserv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anneal"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/openql"
	"repro/internal/qubo"
	"repro/internal/qx"
)

const bellCQASM = `version 1.0
qubits 2
.bell
h q[0]
cnot q[0], q[1]
measure q[0]
measure q[1]
`

func bellProgram(name string) *openql.Program {
	p := openql.NewProgram(name, 2)
	k := openql.NewKernel("entangle", 2)
	k.H(0).CNOT(0, 1).Measure(0).Measure(1)
	p.AddKernel(k)
	return p
}

// twoBackendService returns a started service over the perfect and
// semiconducting stacks — one direct-QX lane and one
// eQASM/micro-architecture lane.
func twoBackendService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	s.AddBackend(NewStackBackend(core.NewPerfect(5, 7)), 3)
	s.AddBackend(NewStackBackend(core.NewSemiconducting(7)), 3)
	s.Start()
	t.Cleanup(s.Stop)
	return s
}

func TestSubmitValidation(t *testing.T) {
	s := twoBackendService(t, Config{})
	if _, err := s.Submit(Request{}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := s.Submit(Request{CQASM: bellCQASM, QUBO: qubo.New(2)}); err == nil {
		t.Error("two payloads accepted")
	}
	if _, err := s.Submit(Request{CQASM: bellCQASM, Backend: "nope"}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := s.Submit(Request{QUBO: qubo.New(2)}); err == nil {
		t.Error("unroutable payload accepted")
	}
}

// TestEndToEndConcurrent is the service's end-to-end contract: N jobs
// submitted concurrently across two backends, all awaited, then the same
// programs resubmitted with a nonzero cache hit rate. Run with -race.
func TestEndToEndConcurrent(t *testing.T) {
	s := twoBackendService(t, Config{QueueSize: 128, Seed: 11})

	const perBackend = 6
	submit := func() []*Job {
		var (
			mu   sync.Mutex
			jobs []*Job
			wg   sync.WaitGroup
		)
		for i := 0; i < perBackend; i++ {
			for _, backend := range []string{"perfect", "semiconducting"} {
				i, backend := i, backend
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Three distinct programs per backend, so each round
					// compiles 3 programs per backend and repeats them.
					j, err := s.Submit(Request{
						Name:    fmt.Sprintf("bell-%s-%d", backend, i%3),
						Program: bellProgram(fmt.Sprintf("bell%d", i%3)),
						Backend: backend,
						Shots:   64,
					})
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					mu.Lock()
					jobs = append(jobs, j)
					mu.Unlock()
				}()
			}
		}
		wg.Wait()
		return jobs
	}

	await := func(jobs []*Job) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, j := range jobs {
			if err := j.Wait(ctx); err != nil {
				t.Fatalf("job %s on %s failed: %v", j.ID, j.Backend(), err)
			}
			res := j.Result()
			if res == nil || res.Report == nil || res.Report.Result == nil {
				t.Fatalf("job %s: missing result", j.ID)
			}
			total := 0
			for _, c := range res.Report.Result.Counts {
				total += c
			}
			if total != 64 {
				t.Errorf("job %s: %d shots aggregated, want 64", j.ID, total)
			}
		}
	}

	await(submit())
	m := scrape(t, s.Handler())
	if done := obs.Sum(m, "qserv_jobs_completed_total", `status="done"`); done != 2*perBackend {
		t.Fatalf("round 1: %g jobs done, want %d", done, 2*perBackend)
	}

	// Resubmission of the same programs must hit the compile cache.
	await(submit())
	m = scrape(t, s.Handler())
	if done := obs.Sum(m, "qserv_jobs_completed_total", `status="done"`); done != 4*perBackend {
		t.Fatalf("round 2: %g jobs done, want %d", done, 4*perBackend)
	}
	if hits := metricValue(t, m, `qserv_compile_cache_ops_total{level="full",op="hit"}`); hits == 0 {
		t.Fatal("no cache hits on resubmission")
	}
	// 3 distinct programs per backend → at most 6 cold compiles total.
	if misses := metricValue(t, m, `qserv_compile_cache_ops_total{level="full",op="miss"}`); misses > 6 {
		t.Errorf("%g cold compiles, want <= 6 (singleflight dedup)", misses)
	}
	for _, b := range []string{"perfect", "semiconducting"} {
		if done := metricValue(t, m, `qserv_jobs_completed_total{backend="`+b+`",status="done"}`); done != 2*perBackend {
			t.Errorf("backend %s: %g jobs, want %d", b, done, 2*perBackend)
		}
	}
}

func TestCacheSingleflightAndLRU(t *testing.T) {
	c := NewCompileCache(2)
	var compiles atomic.Int32
	compile := func() (*openql.Compiled, error) {
		compiles.Add(1)
		time.Sleep(5 * time.Millisecond)
		return &openql.Compiled{}, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.GetOrCompile("k1", compile); err != nil {
				t.Errorf("GetOrCompile: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Errorf("%d compiles for one key under concurrency, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 7 {
		t.Errorf("stats %+v, want 1 miss / 7 hits", st)
	}

	// LRU eviction: k1, k2 cached (max 2); touching k1 then adding k3
	// must evict k2.
	c.GetOrCompile("k2", compile)
	c.GetOrCompile("k1", compile)
	c.GetOrCompile("k3", compile)
	before := compiles.Load()
	c.GetOrCompile("k1", compile) // still cached
	if compiles.Load() != before {
		t.Error("k1 evicted despite recent use")
	}
	c.GetOrCompile("k2", compile) // evicted → recompiles
	if compiles.Load() != before+1 {
		t.Error("k2 not evicted as LRU")
	}

	// Failed compiles are not cached.
	c.Clear()
	fails := 0
	boom := func() (*openql.Compiled, error) { fails++; return nil, fmt.Errorf("boom") }
	c.GetOrCompile("bad", boom)
	c.GetOrCompile("bad", boom)
	if fails != 2 {
		t.Errorf("failed compile cached (%d invocations, want 2)", fails)
	}
}

func TestAnnealAndClassicalBackends(t *testing.T) {
	s := New(Config{Seed: 3})
	s.AddBackend(NewAnnealBackend("annealer", false, anneal.SQAOptions{Sweeps: 200}, anneal.DigitalAnnealerOptions{}), 2)
	s.AddBackend(NewClassicalFallback("classical", 16), 1)
	s.Start()
	defer s.Stop()

	// MAXCUT-style toy QUBO with known minimum: x0=1, x1=1, energy -2.
	q := qubo.New(3)
	q.Set(0, 0, -1)
	q.Set(1, 1, -1)
	q.Set(0, 2, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, backend := range []string{"annealer", "classical"} {
		j, err := s.Submit(Request{QUBO: q, Backend: backend})
		if err != nil {
			t.Fatalf("%s submit: %v", backend, err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		res := j.Result()
		if res == nil || res.Anneal == nil {
			t.Fatalf("%s: missing anneal result", backend)
		}
		if res.Anneal.Energy != -2 {
			t.Errorf("%s: energy %v, want -2", backend, res.Anneal.Energy)
		}
	}

	// Default routing sends a QUBO to the first accepting backend.
	j, err := s.Submit(Request{QUBO: q})
	if err != nil {
		t.Fatal(err)
	}
	if j.Backend() != "annealer" {
		t.Errorf("routed to %s, want annealer", j.Backend())
	}
	j.Wait(ctx)
}

// blockingBackend runs jobs only when released — for backpressure tests.
type blockingBackend struct {
	release chan struct{}
}

func (b *blockingBackend) Name() string            { return "blocker" }
func (b *blockingBackend) Accepts(r *Request) bool { return true }
func (b *blockingBackend) Run(r *Request, seed int64, env *CompileEnv) (*Result, bool, error) {
	<-b.release
	return &Result{}, false, nil
}

func TestQueueFullBackpressure(t *testing.T) {
	bb := &blockingBackend{release: make(chan struct{})}
	s := New(Config{QueueSize: 2})
	s.AddBackend(bb, 1)
	s.Start()
	defer s.Stop()
	defer close(bb.release)

	var full bool
	var jobs []*Job
	// Worker lane (1 running + 1 buffered) plus queue (2) saturate well
	// within 10 submissions.
	for i := 0; i < 10; i++ {
		j, err := s.Submit(Request{CQASM: bellCQASM})
		if err == ErrQueueFull {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		// Give the dispatcher a moment to drain the queue into the lane.
		time.Sleep(time.Millisecond)
	}
	if !full {
		t.Fatal("queue never reported full")
	}
	if depth := metricValue(t, scrape(t, s.Handler()), `qserv_queue_depth{backend="blocker"}`); depth == 0 {
		t.Error("metrics report an empty queue while saturated")
	}
	for range jobs {
		bb.release <- struct{}{}
	}
}

func TestHTTPAPI(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 5})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submit := func(body string) SubmitResponse {
		t.Helper()
		resp, err := http.Post(srv.URL+"/submit", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		var sr SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	body, _ := json.Marshal(SubmitRequest{Name: "bell", CQASM: bellCQASM, Backend: "perfect", Shots: 256})
	sr := submit(string(body))
	if sr.ID == "" || sr.Backend != "perfect" {
		t.Fatalf("bad submit response %+v", sr)
	}

	// Long-poll the job to completion.
	resp, err := http.Get(srv.URL + "/jobs/" + sr.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jv.Status != StatusDone {
		t.Fatalf("job not done after wait: %+v", jv)
	}
	total := 0
	for bits, c := range jv.Result.Counts {
		if bits != "00" && bits != "11" {
			t.Errorf("non-Bell outcome %q on perfect qubits", bits)
		}
		total += c
	}
	if total != 256 {
		t.Errorf("counts sum %d, want 256", total)
	}

	// Resubmit: the compile must be served from cache.
	sr2 := submit(string(body))
	resp, err = http.Get(srv.URL + "/jobs/" + sr2.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	jv = JobView{}
	json.NewDecoder(resp.Body).Decode(&jv)
	resp.Body.Close()
	if !jv.CacheHit {
		t.Error("resubmission did not hit the compile cache")
	}

	// /metrics reports the activity.
	m := scrapeURL(t, srv.URL)
	submitted, hits := m["qserv_jobs_submitted_total"], m[`qserv_compile_cache_ops_total{level="full",op="hit"}`]
	if submitted < 2 || hits == 0 {
		t.Errorf("metrics missing activity: submitted=%g full hits=%g", submitted, hits)
	}
	// /metrics is the only metrics surface; there is no GET /stats.
	if resp, _ := http.Get(srv.URL + "/stats"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /stats → %d, want 404", resp.StatusCode)
	}

	// Error paths.
	if resp, _ := http.Get(srv.URL + "/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job → %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Post(srv.URL+"/submit", "application/json", bytes.NewBufferString("{}")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty submit → %d, want 400", resp.StatusCode)
	}
	if resp, _ := http.Post(srv.URL+"/submit", "application/json", bytes.NewBufferString(`{"qubo":{"n":2,"terms":[{"i":5,"j":0,"v":1}]}}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range qubo term → %d, want 400", resp.StatusCode)
	}
}

func TestCQASMSubmissionSharesCacheWithProgram(t *testing.T) {
	// The same logical circuit submitted as text and as a Program must
	// land on one cache entry (keying on the canonical render).
	s := twoBackendService(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	j1, err := s.Submit(Request{CQASM: bellCQASM, Backend: "perfect", Shots: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(Request{Program: bellProgram("bell"), Backend: "perfect", Shots: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit() {
		t.Error("builder-API resubmission of the text-submitted circuit missed the cache")
	}
}

func TestDeterministicSeeds(t *testing.T) {
	// Same request + same pinned seed → identical counts.
	run := func() map[int]int {
		s := twoBackendService(t, Config{})
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		j, err := s.Submit(Request{Program: bellProgram("b"), Backend: "perfect", Shots: 128, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return j.Result().Report.Result.Counts
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("count maps differ: %v vs %v", a, b)
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("seeded runs diverge at %d: %d vs %d", k, v, b[k])
		}
	}
}

func TestCompletedJobRetention(t *testing.T) {
	s := New(Config{RetainJobs: 3, Seed: 2})
	s.AddBackend(NewClassicalFallback("classical", 8), 1)
	s.Start()
	defer s.Stop()

	q := qubo.New(2)
	q.Set(0, 0, -1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := s.Submit(Request{QUBO: q})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Error("oldest completed job not evicted beyond RetainJobs")
	}
	if _, ok := s.Job(ids[5]); !ok {
		t.Error("newest completed job evicted")
	}
}

func TestNoHeadOfLineBlocking(t *testing.T) {
	// A saturated backend lane must not prevent submission to, or
	// execution on, another backend.
	bb := &blockingBackend{release: make(chan struct{})}
	s := New(Config{QueueSize: 1, Seed: 2})
	s.AddBackend(bb, 1)
	s.AddBackend(NewClassicalFallback("classical", 8), 1)
	s.Start()
	defer s.Stop()
	defer close(bb.release)

	// Saturate the blocker lane: 1 running + 1 queued.
	var blocked []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(Request{CQASM: bellCQASM, Backend: "blocker"})
		if err == ErrQueueFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		blocked = append(blocked, j)
	}

	// The classical lane still accepts and completes work.
	q := qubo.New(2)
	q.Set(0, 0, -1)
	j, err := s.Submit(Request{QUBO: q, Backend: "classical"})
	if err != nil {
		t.Fatalf("classical lane rejected while blocker saturated: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("classical job stalled behind saturated blocker lane: %v", err)
	}
	for range blocked {
		bb.release <- struct{}{}
	}
}

// The engine is not a request field: a stray "engine" from an older
// client is ignored, and the job runs on the auto engine like any other.
func TestHTTPEngineField(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 5})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(map[string]any{"name": "bell", "cqasm": bellCQASM,
		"backend": "perfect", "engine": "warp-drive", "shots": 64})
	resp, err := http.Post(srv.URL+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with stray engine field: status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/jobs/" + v.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone || v.Engine != qx.EngineStabilizer {
		t.Errorf("job %s: status %s on engine %q, want done on %q", v.ID, v.Status, v.Engine, qx.EngineStabilizer)
	}
}

// The default engine is auto: a Clifford job submitted with no engine
// override must be dispatched to the stabilizer engine, the resolved
// target must surface in the job view and the dispatch counter, and a
// non-Clifford job must fall back to the dense optimized engine.
func TestAutoDispatchEndToEnd(t *testing.T) {
	s := DefaultService(Config{Seed: 21}, 4, 1)
	s.Start()
	defer s.Stop()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submit := func(src string) string {
		t.Helper()
		body, _ := json.Marshal(SubmitRequest{Name: "auto", CQASM: src,
			Backend: "perfect", Shots: 64})
		resp, err := http.Post(srv.URL+"/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v.ID
	}
	engineOf := func(id string) string {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(srv.URL + "/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var v JobView
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if v.Status == StatusDone {
				return v.Engine
			}
			if v.Status == StatusFailed || time.Now().After(deadline) {
				t.Fatalf("job %s did not finish: %+v", id, v)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	if eng := engineOf(submit(bellCQASM)); eng != qx.EngineStabilizer {
		t.Errorf("Clifford job ran on %q, want %q", eng, qx.EngineStabilizer)
	}
	tCQASM := "version 1.0\nqubits 1\nh q[0]\nt q[0]\nmeasure q[0]\n"
	if eng := engineOf(submit(tCQASM)); eng != qx.EngineOptimized {
		t.Errorf("non-Clifford job ran on %q, want %q", eng, qx.EngineOptimized)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`qserv_engine_dispatch_total{engine="stabilizer"} 1`,
		`qserv_engine_dispatch_total{engine="optimized"} 1`,
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// Per-job pass-spec selection: an invalid spec is rejected at submit
// time, a custom spec keys its own compile-cache entry (miss on first
// use, hit on reuse), and the default-spec entry is left untouched.
func TestPerJobPassSelection(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 13})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	run := func(passes string) *Job {
		t.Helper()
		j, err := s.Submit(Request{Program: bellProgram("pass"), Backend: "perfect",
			Passes: passes, Shots: 32})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return j
	}

	if _, err := s.Submit(Request{Program: bellProgram("bad"), Passes: "decompose,teleport"}); err == nil {
		t.Error("unknown pass spec accepted at submit")
	}

	def1 := run("")
	if def1.CacheHit() {
		t.Error("first default-spec compile reported a cache hit")
	}
	custom1 := run("decompose,fold-rotations,optimize,schedule")
	if custom1.CacheHit() {
		t.Error("custom pass spec shared the default spec's cache entry")
	}
	custom2 := run("decompose,fold-rotations,optimize,schedule")
	if !custom2.CacheHit() {
		t.Error("repeated custom pass spec missed its own cache entry")
	}
	def2 := run("")
	if !def2.CacheHit() {
		t.Error("custom-spec jobs evicted or aliased the default entry")
	}
	if st := s.Cache().Stats(); st.Entries != 2 {
		t.Errorf("%d cache entries, want 2 (default + custom spec)", st.Entries)
	}

	// The compile report reflects the executed pipeline, cached or not.
	rep := custom2.Result().Report
	if rep == nil || rep.Compile == nil ||
		rep.Compile.PassSpec != "decompose,fold-rotations,optimize,schedule" {
		t.Fatalf("job compile report missing or wrong: %+v", rep)
	}

	// A spec that parses but lacks the schedule pass is refused at
	// submit with a clear error rather than failing in a worker.
	if _, err := s.Submit(Request{Program: bellProgram("nosched"), Backend: "perfect",
		Passes: "decompose,optimize"}); err == nil || !strings.Contains(err.Error(), "schedule") {
		t.Errorf("schedule-less job error = %v", err)
	}
}

// Per-pass compile metrics must surface on /metrics, aggregated only
// over jobs that actually compiled (cache hits excluded).
func TestStatsCompilePassMetrics(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 21})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		j, err := s.Submit(Request{Program: bellProgram("stats"), Backend: "perfect", Shots: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	m := scrape(t, s.Handler())
	// One cold compile, two cache hits → each pass aggregated exactly
	// once (cache hits skip the pipeline).
	for _, pass := range []string{"decompose", "optimize", "map", "lower-swaps", "optimize-lowered", "schedule", "assemble"} {
		if runs := metricValue(t, m, `qserv_compile_pass_runs_total{backend="perfect",pass="`+pass+`"}`); runs != 1 {
			t.Errorf("pass %q runs = %g, want 1 (cache hits must not aggregate)", pass, runs)
		}
	}
	if metricValue(t, m, `qserv_compile_pass_gates_in_total{backend="perfect",pass="decompose"}`) == 0 {
		t.Error("decompose gate counts not aggregated")
	}
}

// The HTTP surface: "passes" field accepted and echoed, bad specs are a
// 400, and the job's trace shows the spec ran: one kernel span for the
// platform-generic prefix and, in order, one pass span per suffix pass.
func TestHTTPPassesField(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 5})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec := "decompose,optimize,map,lower-swaps,schedule,assemble"
	body, _ := json.Marshal(SubmitRequest{Name: "bell", CQASM: bellCQASM,
		Backend: "perfect", Passes: spec, Shots: 32})
	resp, err := http.Post(srv.URL+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("passes submit status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/jobs/" + sr.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jv.Status != StatusDone {
		t.Fatalf("job failed: %+v", jv)
	}
	if jv.Passes != spec {
		t.Errorf("job view passes = %q, want %q", jv.Passes, spec)
	}
	resp, err = http.Get(srv.URL + "/jobs/" + sr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tv obs.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pl, err := compiler.NewPipeline(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, suffix := pl.Split()
	var passSpans []string
	kernels := 0
	var walk func(*obs.SpanView)
	walk = func(sv *obs.SpanView) {
		if name, ok := strings.CutPrefix(sv.Name, "pass:"); ok {
			passSpans = append(passSpans, name)
		}
		if strings.HasPrefix(sv.Name, "kernel:") {
			kernels++
		}
		for _, c := range sv.Children {
			walk(c)
		}
	}
	walk(tv.Root)
	if want := suffix.Passes(); !reflect.DeepEqual(passSpans, want) {
		t.Errorf("trace pass spans = %v, want the suffix of %q: %v", passSpans, spec, want)
	}
	if kernels != 1 {
		t.Errorf("trace has %d kernel spans, want 1 (the bell kernel's prefix compile)", kernels)
	}

	bad, _ := json.Marshal(SubmitRequest{CQASM: bellCQASM, Passes: "decompose,teleport"})
	resp, err = http.Post(srv.URL+"/submit", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus passes submit status %d, want 400", resp.StatusCode)
	}

	// /metrics carries per-pass compile metrics.
	if runs := scrapeURL(t, srv.URL)[`qserv_compile_pass_runs_total{backend="perfect",pass="schedule"}`]; runs == 0 {
		t.Error("/metrics missing per-pass compile metrics")
	}
}

// DefaultService must thread Config.Passes into every gate stack.
func TestDefaultServicePassesConfig(t *testing.T) {
	spec := "decompose,optimize,schedule,assemble"
	s := DefaultService(Config{Seed: 3, Passes: spec}, 4, 1)
	s.Start()
	defer s.Stop()
	job, err := s.Submit(Request{Program: bellProgram("cfg"), Backend: "superconducting", Shots: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := job.Result().Report
	if rep == nil || rep.Compile == nil || rep.Compile.PassSpec != spec {
		t.Fatalf("configured pass spec not used: %+v", rep)
	}
}
