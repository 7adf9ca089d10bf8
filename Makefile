# Tier-1 verification for the repro module. `make ci` mirrors the CI
# workflow step for step — gofmt, vet, staticcheck, qlint, race tests,
# the allocation ceilings without -race, the fuzz smoke, the coverage
# gates, the bench smoke, the metrics smoke, the examples smoke and the load-harness
# smoke — so local verification catches everything the workflow does.
# Its first step (build) is the guard that keeps the go.mod regression
# from recurring.
#
# Load-harness targets: `make load-smoke` is the fast PR gate (one
# scenario, one seed, byte-reproducibility check, negative control);
# `make load-gate` runs the full scenario matrix at 3 seeds with the
# BLIS directional-consistency verdict — the nightly CI job.
#
# `make lint` runs the repo's own analyzers (cmd/qlint): map-iteration
# determinism, Stack fingerprint completeness, the shared-PRNG-walk
# contract and obs span lifecycles. See internal/lint for the invariant
# docs. staticcheck is pinned once, in tools/go.mod (a nested tool
# module, so the main module never resolves tool code).

GO ?= go
BENCH_COUNT ?= 5
BENCH_TOLERANCE ?= 0.20
OBS_OVERHEAD_CEILING ?= 5
PARAM_BIND_CEILING ?= 10
STAB_VS_DENSE_CEILING ?= 1
MEASURED_VS_SAMPLED_CEILING ?= 2000
EARLY_MEASURED_CEILING ?= 1000

# The bench-baseline/bench-gate recipes pipe `go test` into benchgate;
# without pipefail a failing benchmark run would exit 0 through the pipe
# and silently emit a truncated baseline. (The CI workflow's default
# bash shell already runs with -o pipefail.)
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build fmt vet staticcheck lint test race allocs fuzz-smoke bench bench-smoke bench-baseline bench-gate cover metrics-smoke examples-smoke load-smoke load-gate vuln ci

all: ci

build:
	$(GO) build ./...

# gofmt with fail-on-diff, exactly like the workflow step.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Correctness-class staticcheck analyses (SA*). The version is pinned by
# the `tool` directive in tools/go.mod — the single pin site. The first
# run needs network to populate tools/go.sum and fetch the module; the
# built binary is cached under bin/ after that.
staticcheck: bin/staticcheck
	./bin/staticcheck -checks 'SA*' ./...

bin/staticcheck: tools/go.mod
	@[ -f tools/go.sum ] || (cd tools && $(GO) mod tidy)
	cd tools && $(GO) build -o ../bin/staticcheck honnef.co/go/tools/cmd/staticcheck

# The repo's own invariant analyzers (see internal/lint): detmap,
# fpfields, rngwalk, spanend. Pure stdlib — no network needed. Fails
# with file:line:col diagnostics on any violation.
lint:
	$(GO) run ./cmd/qlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The root allocation tests without -race, which drops sync.Pool puts at
# random: TestColdJobAllocs holds its run byte ceiling only here.
allocs:
	$(GO) test -run 'Allocs' .

# Run each fuzz target for 10 s on two workers, starting from its
# committed seed corpus (testdata/fuzz/): FuzzParse holds the cQASM
# print/parse round trip, FuzzStack runs every small accepted program on
# the perfect and the superconducting stack, where it must run or fail
# with an error, never panic.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -parallel 2 ./internal/cqasm
	$(GO) test -run '^$$' -fuzz '^FuzzStack$$' -fuzztime 10s -parallel 2 ./internal/core

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Run every benchmark once so benchmark code cannot rot silently.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# Generate a local benchmark-regression baseline (BENCH_5.json):
# $(BENCH_COUNT) samples per benchmark, one iteration each, folded to
# min ns/op + allocs/op by cmd/benchgate. The file is gitignored — CI
# does not use machine-local numbers; it promotes its own baseline
# between runs as the BENCH_5 workflow artifact (see ci.yml).
bench-baseline:
	$(GO) test -bench=. -benchtime=1x -count=$(BENCH_COUNT) -benchmem -run=^$$ . \
		| $(GO) run ./cmd/benchgate -emit BENCH_5.json

# The benchmark-regression gate: compare a fresh $(BENCH_COUNT)-sample
# run against the local baseline from `make bench-baseline`, fail on any
# regression beyond ±$(BENCH_TOLERANCE), and hold the absolute ceilings —
# BenchmarkObsOverhead's observability overhead under
# $(OBS_OVERHEAD_CEILING)%, BenchmarkParamBindVsRecompile's bind cost
# under $(PARAM_BIND_CEILING)% of a full recompile (the ≥10x parametric
# speedup floor), BenchmarkStabilizerVsDense's 22-qubit tableau batch
# under $(STAB_VS_DENSE_CEILING)% of the dense batch, and
# BenchmarkMeasuredShots's measured batch under
# $(MEASURED_VS_SAMPLED_CEILING)% of the measurement-free one and
# BenchmarkEarlyMeasuredShots's batch that measures an idle qubit first
# under $(EARLY_MEASURED_CEILING)% (the outcome tree both qx engines share).
# BenchmarkColdJob (one job of stackbench's cold mix: parse, compile, a
# 16-shot run through the micro-architecture) is held by the relative
# ns/op and allocs/op check; the tier-1 TestColdJobAllocs holds its
# absolute allocation and byte ceilings.
bench-gate:
	$(GO) test -bench=. -benchtime=1x -count=$(BENCH_COUNT) -benchmem -run=^$$ . \
		| $(GO) run ./cmd/benchgate -baseline BENCH_5.json -emit BENCH_5.current.json \
			-tolerance $(BENCH_TOLERANCE) -ceiling overhead_pct=$(OBS_OVERHEAD_CEILING) \
			-ceiling bind_vs_compile_pct=$(PARAM_BIND_CEILING) \
			-ceiling stabilizer_vs_dense_pct=$(STAB_VS_DENSE_CEILING) \
			-ceiling measured_vs_sampled_pct=$(MEASURED_VS_SAMPLED_CEILING) \
			-ceiling early_measured_vs_sampled_pct=$(EARLY_MEASURED_CEILING)

# Coverage gates on the layers every other layer builds on: the
# gate-level circuit IR, the device/target contract, the pass-manager
# compiler, the eQASM assembler, the OpenQL program layer, the
# micro-architecture, the observability primitives, the qx
# engine suite with its stabilizer fast path, the loadgen scenario
# harness, the qserv accelerator service, the full-stack core, the
# quantum state kernels, the qec surface code and the qlint analyzer
# suite (mirrors the CI step). COVER_PKGS drives one loop over the per-package
# gates; the lint gate stays special-cased because its profile
# aggregates over the whole internal/lint tree — the analyzer fixtures
# exercise the framework.
COVER_PKGS ?= circuit target compiler eqasm openql microarch obs qx loadgen qserv core quantum qec
COVER_FLOOR ?= 80.0
COVER_AWK = /^total:/ {sub(/%/,"",$$3); if ($$3+0 < floor) {print pkg " coverage " $$3 "% is below the " floor "% gate"; exit 1} else print pkg " coverage " $$3 "%"}

cover:
	@for pkg in $(COVER_PKGS); do \
		$(GO) test -coverprofile=$$pkg.cov ./internal/$$pkg || exit 1; \
		$(GO) tool cover -func=$$pkg.cov \
			| awk -v pkg=internal/$$pkg -v floor=$(COVER_FLOOR) '$(COVER_AWK)' || exit 1; \
	done
	$(GO) test -coverprofile=lint.cov -coverpkg=./internal/lint/... ./internal/lint/...
	$(GO) tool cover -func=lint.cov | awk -v pkg=internal/lint -v floor=$(COVER_FLOOR) '$(COVER_AWK)'

# End-to-end scrape smoke: boot qservd, submit a job over HTTP, then
# verify /metrics serves Prometheus exposition with the job counters,
# cache, pass, session and garbage-collector families populated, that the Clifford Bell job
# was dispatched to the stabilizer engine with no flag set, that the
# trace endpoint serves the span tree for the submitted job's X-Trace-Id,
# that /metrics is the only metrics surface (GET /stats is a 404), and
# that a program the cQASM parser refuses is a 400 at submit.
metrics-smoke:
	$(GO) build -o bin/qservd ./cmd/qservd
	@./bin/qservd -addr 127.0.0.1:18080 -log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do \
		curl -fsS http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	trace=$$(curl -fsS -D - -o /dev/null -X POST http://127.0.0.1:18080/submit \
		-d '{"cqasm":"version 1.0\nqubits 2\nh q[0]\ncnot q[0],q[1]\nmeasure q[0]\nmeasure q[1]","backend":"perfect","shots":16}' \
		| awk 'tolower($$1)=="x-trace-id:" {gsub(/\r/,"",$$2); print $$2}'); \
	[ -n "$$trace" ] || { echo "metrics-smoke: no X-Trace-Id on submit"; exit 1; }; \
	curl -fsS "http://127.0.0.1:18080/jobs/$$trace?wait=5s" >/dev/null; \
	curl -fsS http://127.0.0.1:18080/metrics > bin/metrics.scrape; \
	for family in qserv_jobs_submitted_total qserv_jobs_completed_total \
		qserv_job_latency_seconds_bucket qserv_queue_depth \
		qserv_compile_cache_ops_total qserv_compile_cache_entries \
		qserv_compile_pass_seconds_count qserv_sessions_closed_total \
		qserv_http_requests_total qserv_gc_heap_live_bytes qserv_gc_cpu_seconds; do \
		grep -q "^$$family" bin/metrics.scrape || { echo "metrics-smoke: $$family missing from /metrics"; exit 1; }; \
	done; \
	grep -qF 'qserv_engine_dispatch_total{engine="stabilizer"} 1' bin/metrics.scrape \
		|| { echo "metrics-smoke: the Clifford Bell job was not dispatched to the stabilizer engine"; exit 1; }; \
	curl -fsS "http://127.0.0.1:18080/jobs/$$trace/trace" | grep -q '"queue.wait"' \
		|| { echo "metrics-smoke: trace endpoint missing queue.wait span"; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18080/stats); \
	[ "$$code" = 404 ] || { echo "metrics-smoke: GET /stats = $$code, want 404"; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST http://127.0.0.1:18080/submit \
		-d '{"cqasm":"version 1.0\nqubits 2\nfoo q[0]","backend":"perfect"}'); \
	[ "$$code" = 400 ] || { echo "metrics-smoke: POST /submit of an unparsable program = $$code, want 400"; exit 1; }; \
	echo "metrics-smoke: /metrics, /jobs/{id}/trace, the /stats 404 and the unparsable-program 400 OK"

# Build and run every example program (examples/*/main.go); a non-zero
# exit fails the target and prints the example's output. Each example is
# self-contained and seeded, and finishes in a few seconds.
examples-smoke:
	@mkdir -p bin/examples
	@for main in examples/*/main.go; do \
		name=$$(basename $$(dirname $$main)); \
		$(GO) build -o bin/examples/$$name ./examples/$$name || exit 1; \
		./bin/examples/$$name > bin/examples/$$name.out 2>&1 \
			|| { cat bin/examples/$$name.out; echo "examples-smoke: $$name exited non-zero"; exit 1; }; \
		echo "examples-smoke: $$name OK"; \
	done

# Load-harness smoke — the required CI job. Builds qload, proves the
# workload generator is byte-reproducible for a fixed (scenario, seed)
# by diffing two generations, runs the smoke scenario's SLO gate at one
# seed, and confirms the gate rejects an injected violation
# (negative_slo.json must exit 1, not 0 and not an operational 2).
load-smoke:
	$(GO) build -o bin/qload ./cmd/qload
	./bin/qload -print-workload -seed 42 scenarios/smoke.json > bin/smoke.workload.a
	./bin/qload -print-workload -seed 42 scenarios/smoke.json > bin/smoke.workload.b
	cmp bin/smoke.workload.a bin/smoke.workload.b
	./bin/qload -gate -seed 42 -out bin/load-reports -trace-dir bin/load-traces scenarios/smoke.json
	@st=0; ./bin/qload -gate -seed 42 -quiet scenarios/negative_slo.json || st=$$?; \
	[ "$$st" -eq 1 ] || { echo "load-smoke: negative control expected gate exit 1, got $$st"; exit 1; }
	@echo "load-smoke: byte-reproducibility + SLO gate + negative control OK"

# Full scenario matrix at the scenarios' 3 BLIS seeds with
# directional-consistency gating — the nightly CI job. negative_slo.json
# is excluded from the passing matrix and asserted to fail.
load-gate:
	$(GO) build -o bin/qload ./cmd/qload
	./bin/qload -gate -out bin/load-reports -trace-dir bin/load-traces \
		scenarios/smoke.json scenarios/bind_storm.json scenarios/calibration_drift.json \
		scenarios/steady_mixed.json scenarios/surge_multitenant.json
	@st=0; ./bin/qload -gate -quiet scenarios/negative_slo.json || st=$$?; \
	[ "$$st" -eq 1 ] || { echo "load-gate: negative control expected gate exit 1, got $$st"; exit 1; }
	@echo "load-gate: full scenario matrix OK"

# Known-vulnerability scan (network access required).
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

ci: build fmt vet staticcheck lint race allocs fuzz-smoke cover bench-smoke metrics-smoke examples-smoke load-smoke
