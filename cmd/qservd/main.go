// qservd serves the heterogeneous quantum accelerator system of Fig 1
// over HTTP: gate jobs (cQASM) on the perfect, superconducting and
// semiconducting stacks — plus any device loaded with -target — QUBO
// jobs on the simulated quantum annealer, and a classical brute-force
// fallback, all behind a bounded job queue, per-backend worker pools and
// a shared compiled-circuit cache keyed on device content hashes.
//
// Usage:
//
//	qservd [-addr :8080] [-qubits 10] [-workers 2] [-queue 256] [-cache 512]
//	       [-prefix-cache 2048] [-shots 1024] [-seed 1]
//	       [-passes spec]
//	       [-session-ttl 15m] [-max-sessions 256]
//	       [-target device.json] [-calibration cal.json]
//	       [-metrics] [-trace-ring 1024] [-pprof] [-drain-timeout 30s]
//	       [-log-format text|json] [-log-level info]
//
// API:
//
//	POST /submit        {"cqasm": "...", "backend": "perfect", "shots": 1024}
//	                    {"cqasm": "...", "passes": "decompose,map(lookahead=8,strategy=noise),lower-swaps,schedule,assemble"}
//	                    {"cqasm": "...", "target": {<device JSON>}}
//	                    {"cqasm": "...", "backend": "superconducting", "calibration": {<calibration JSON>}}
//	                    {"qubo": {"n": 3, "terms": [{"i":0,"j":0,"v":-1}]}, "backend": "annealer"}
//	                    the 202 response carries the job's X-Trace-Id
//	GET  /jobs/{id}     job status, result, engine and trace_id; the
//	                    per-pass compile account is in the trace
//	GET  /jobs/{id}/trace
//	                    the job's span tree: queue wait, compile (cache
//	                    level, per-kernel prefix, per-pass suffix),
//	                    execution with engine shot batches; session bind
//	                    jobs record a "bind" span instead of "compile"
//	POST /sessions      {"cqasm": "... rz q[0], 2*$gamma ...",
//	                     "backend": "perfect", "shots": 1024}
//	                    open a variational session: the parameterised
//	                    program compiles once (symbolic angles survive
//	                    the full pipeline) and the artefact stays pinned;
//	                    201 returns the session with its sorted symbols
//	GET  /sessions      open sessions (id, symbols, bind count, expiry)
//	GET  /sessions/{id} one session's view
//	POST /sessions/{id}/bind
//	                    {"values": {"gamma": 0.7, "beta": 0.4}}
//	                    stream one parameter point: an O(#symbols) patch
//	                    of the pinned artefact submitted as a cheap
//	                    sub-job (202 + X-Trace-Id, same job API as
//	                    /submit); values must match the session's
//	                    symbols exactly
//	DELETE /sessions/{id}
//	                    close a session (sessions also expire after the
//	                    idle TTL and are LRU-evicted past the cap)
//	PUT  /backends/{name}/calibration
//	                    live re-calibration: atomically replace the
//	                    backend device's calibration table (the new
//	                    device hash rotates the compile-cache keys)
//	GET  /backends      registered backends with full device descriptions,
//	                    calibration tables and device content hashes
//	GET  /metrics       Prometheus text-format exposition, the one metrics
//	                    surface: job counters, queue depth,
//	                    latency/queue-wait histograms per backend, both
//	                    compile-cache levels, per-pass compile timings,
//	                    sessions, HTTP request metrics
//	GET  /healthz       liveness probe
//	GET  /debug/pprof/  runtime profiles (only with -pprof)
//
// Observability: every job gets a trace ID (equal to its job ID) at
// submit; spans cover queue wait, compile — cache outcome, per-kernel
// prefix compiles, per-pass suffix timings — and execution down to the
// engine's shot batches. -trace-ring bounds how many traces stay
// queryable; -metrics=false disables metric recording entirely (the
// endpoint then serves an empty exposition). Structured logs (slog) go
// to stderr keyed by trace_id: job lifecycle at info, per-request HTTP
// access logs at debug; -log-format selects text or JSON, -log-level
// the threshold.
//
// Execution engine: every gate job runs on the qx auto engine, which
// inspects each compiled circuit at dispatch time and picks the
// "stabilizer" engine (Aaronson–Gottesman CHP tableau, polynomial in
// qubit count but Clifford-only) when every gate is Clifford (rotations
// at exact multiples of π/2 included) and the backend noise model is
// tableau-compatible (stochastic Pauli: depolarizing, dephasing,
// readout flips — amplitude damping forces the dense path); everything
// else runs on the dense "optimized" engine. The engine that ran
// surfaces as the job view's "engine" field, an "engine" attribute on
// the execution span, and the qserv_engine_dispatch_total{engine=...}
// counter. Counts for registers wider than 63 qubits are keyed by
// bitstring in the result view, exactly like narrow ones.
//
// The optional "passes" field is a job's whole compiler configuration:
// the pass pipeline with per-pass options such as map(strategy=noise)
// for calibration-weighted routing or schedule(policy=alap); -passes
// sets the default for every gate stack, and empty selects the standard
// flow (compiler.DefaultPassSpec). A spec with no "schedule", or no
// "assemble" after it on a realistic stack, is refused at submit. "target" submits a full device description for one job and
// "calibration" overlays fresh calibration data onto the job's device —
// both are validated at submit time (400 on invalid input) and key the
// full-artefact compile cache through the device content hash, so
// re-calibration never reuses stale compiled artefacts. The device-JSON
// schema is what GET /backends returns; examples live under
// examples/devices/.
//
// Compilation is two-level cached: beside the full-artefact cache
// (-cache), a prefix cache (-prefix-cache) holds per-kernel
// platform-generic artefacts (decompose/optimize output) keyed by gate
// set rather than device hash, so jobs that only change mapping,
// scheduling or calibration recompile suffix-only. GET /metrics reports
// both cache levels (qserv_compile_cache_ops_total) and per-backend
// prefix hits (qserv_compile_cache_skips_total{level="prefix"}).
//
// Parametric compilation & sessions: cQASM angles may be linear
// expressions over $symbols (`rz q[0], 2*$gamma`); such a program
// submitted to POST /sessions compiles once with the symbols preserved
// through decompose, optimise, map, schedule and eQASM assembly, and
// every POST /sessions/{id}/bind evaluates the artefact's bind table —
// an O(#symbols) patch, no recompilation — before seeded execution.
// All bindings of one ansatz share a single entry in both compile-cache
// levels, because kernel hashes fold expressions in symbolically.
// Session activity surfaces in GET /metrics (qserv_sessions_active,
// qserv_sessions_opened_total, qserv_sessions_closed_total,
// qserv_binds_total, qserv_bind_seconds).
//
// -target adds the device in the given JSON file as an additional gate
// backend (named after the device); -calibration overlays a calibration
// file onto it at startup.
//
// Shutdown: SIGTERM or SIGINT triggers a graceful drain — the HTTP
// listener stops accepting connections, further submits are rejected
// with 503, and in-flight jobs run to completion, all bounded by the
// -drain-timeout deadline. On a clean drain the process logs its final
// job counters and exits 0; past the deadline it exits with jobs still
// in flight (and says so).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qserv"
	"repro/internal/target"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	qubits := flag.Int("qubits", 10, "qubit count of the perfect stack")
	workers := flag.Int("workers", 2, "workers per backend pool")
	queue := flag.Int("queue", 256, "bounded job queue size")
	cache := flag.Int("cache", 512, "compiled-circuit cache entries (negative disables)")
	prefixCache := flag.Int("prefix-cache", 0,
		"prefix-artefact cache entries (0 defaults to 4x -cache; negative disables)")
	shots := flag.Int("shots", 1024, "default shots per gate job")
	seed := flag.Int64("seed", 1, "base seed for per-job seed derivation")
	passes := flag.String("passes", "",
		"default compiler pass pipeline for the gate stacks (available: "+
			strings.Join(compiler.PassNames(), ", ")+"); empty selects "+compiler.DefaultPassSpec)
	targetPath := flag.String("target", "",
		"device JSON file served as an additional gate backend (see examples/devices/)")
	calibPath := flag.String("calibration", "",
		"calibration JSON file overlaid onto the -target device at startup")
	metricsOn := flag.Bool("metrics", true,
		"record and serve Prometheus metrics at /metrics")
	traceRing := flag.Int("trace-ring", 1024,
		"job traces retained for GET /jobs/{id}/trace (negative disables tracing)")
	sessionTTL := flag.Duration("session-ttl", 0,
		"idle expiry of variational sessions (0 = 15m default; negative disables expiry)")
	maxSessions := flag.Int("max-sessions", 0,
		"open-session cap, LRU-evicted beyond it (0 = 256 default; negative unbounded)")
	pprofOn := flag.Bool("pprof", false,
		"serve net/http/pprof runtime profiles under /debug/pprof/")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"graceful-shutdown deadline for draining in-flight jobs on SIGTERM/SIGINT")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "log threshold: debug, info, warn or error")
	flag.Parse()
	if *qubits < 1 {
		log.Fatalf("qservd: -qubits must be at least 1, got %d", *qubits)
	}
	if *passes != "" {
		if _, err := compiler.ParsePassSpec(*passes); err != nil {
			log.Fatalf("qservd: %v", err)
		}
	}
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		log.Fatalf("qservd: %v", err)
	}

	svc := qserv.DefaultService(qserv.Config{
		QueueSize:       *queue,
		DefaultWorkers:  *workers,
		DefaultShots:    *shots,
		CacheSize:       *cache,
		PrefixCacheSize: *prefixCache,
		Seed:            *seed,
		Passes:          *passes,
		SessionTTL:      *sessionTTL,
		MaxSessions:     *maxSessions,
		TraceRing:       *traceRing,
		DisableMetrics:  !*metricsOn,
		Logger:          logger,
	}, *qubits, *workers)

	backends := "perfect, superconducting, semiconducting, annealer, classical"
	if *targetPath != "" {
		dev, err := loadDevice(*targetPath, *calibPath)
		if err != nil {
			log.Fatalf("qservd: %v", err)
		}
		for _, b := range svc.Backends() {
			if b.Name == dev.Name {
				log.Fatalf("qservd: -target device %q collides with the built-in backend of that name; rename the device", dev.Name)
			}
		}
		stack, err := core.NewStackForDevice(dev, *seed)
		if err != nil {
			log.Fatalf("qservd: %v", err)
		}
		stack.Passes = *passes
		stack.KernelWorkers = max(1, runtime.GOMAXPROCS(0)/max(1, *workers))
		svc.AddBackend(qserv.NewStackBackend(stack), *workers)
		backends += ", " + dev.Name
		log.Printf("qservd: serving device %q (%d qubits, hash %s)", dev.Name, dev.NumQubits, dev.Hash()[:12])
	} else if *calibPath != "" {
		log.Fatal("qservd: -calibration requires -target")
	}
	svc.Start()

	handler := svc.Handler()
	if *pprofOn {
		// Mount the profiler beside the API: the service mux keeps owning
		// everything but /debug/pprof/.
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", handler)
		handler = root
	}
	server := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		log.Printf("qservd: serving on %s (backends: %s)", *addr, backends)
		if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("qservd: %v", err)
		}
	}()

	// Graceful shutdown: on SIGTERM/SIGINT stop accepting new requests,
	// reject further submits and drain in-flight jobs, all bounded by the
	// -drain-timeout deadline so a wedged job cannot hold the process
	// hostage.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("qservd: shutting down, draining queue (deadline %s)", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		log.Printf("qservd: shutdown: %v", err)
	}
	if err := svc.Drain(ctx); err != nil {
		log.Printf("qservd: drain deadline exceeded, exiting with jobs in flight: %v", err)
	} else {
		log.Print("qservd: drained cleanly")
	}
	logSummary(svc)
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a stalled client cannot hold one open.
const readHeaderTimeout = 10 * time.Second

// logSummary logs the final job counters, read back from the service's
// metric registry (all zero with -metrics=false).
func logSummary(svc *qserv.Service) {
	var buf bytes.Buffer
	_ = svc.Metrics().WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	m, err := obs.ParseText(&buf)
	if err != nil {
		log.Printf("qservd: final metrics: %v", err)
		return
	}
	hits := m[`qserv_compile_cache_ops_total{level="full",op="hit"}`]
	misses := m[`qserv_compile_cache_ops_total{level="full",op="miss"}`]
	log.Printf("qservd: done — %.0f jobs submitted, %.0f done, %.0f failed, cache hit rate %.0f%%",
		m["qserv_jobs_submitted_total"],
		obs.Sum(m, "qserv_jobs_completed_total", `status="done"`),
		obs.Sum(m, "qserv_jobs_completed_total", `status="failed"`),
		100*hits/max(hits+misses, 1))
}

// buildLogger assembles the service's slog logger from the -log-format
// and -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
	}
}

// loadDevice reads a device JSON file, optionally overlaying a
// calibration file.
func loadDevice(targetPath, calibPath string) (*target.Device, error) {
	dev, err := target.LoadFile(targetPath)
	if err != nil {
		return nil, err
	}
	return target.OverlayCalibrationFile(dev, calibPath)
}
