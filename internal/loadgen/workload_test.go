package loadgen

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cqasm"
)

func testScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := ParseScenario([]byte(`{
		"name": "t",
		"tenants": [{"name": "a", "weight": 3}, {"name": "b", "weight": 1}],
		"phases": [
			{"name": "open", "duration_ms": 400,
			 "arrival": {"process": "poisson", "rate_per_sec": 50},
			 "mix": [
				{"class": "qft", "weight": 2, "qubits": 4, "variants": 3},
				{"class": "ghz", "weight": 1, "qubits": 5, "variants": 2},
				{"class": "qaoa", "weight": 1, "qubits": 4, "depth": 2},
				{"class": "grover", "weight": 1, "qubits": 3},
				{"class": "qec", "weight": 1, "qubits": 3},
				{"class": "genome", "weight": 1, "qubits": 7},
				{"class": "random", "weight": 1, "qubits": 4, "depth": 3}
			 ]},
			{"name": "binds", "duration_ms": 300,
			 "arrival": {"process": "closed", "clients": 3, "think_ms": 10},
			 "sessions": {"count": 2, "layers": 2, "qubits": 4}}
		],
		"slo": {"p95_ms": 5000, "max_error_rate": 0.05}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadByteReproducible is the determinism contract: one
// (scenario, seed) pair yields byte-identical canonical workloads, and
// a different seed yields a different workload.
func TestWorkloadByteReproducible(t *testing.T) {
	s := testScenario(t)
	w1, err := GenerateWorkload(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := GenerateWorkload(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := w1.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := w2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same (scenario, seed) generated different workload bytes")
	}
	if w1.SHA256() != w2.SHA256() {
		t.Fatal("SHA256 mismatch on identical workloads")
	}
	w3, err := GenerateWorkload(s, 123)
	if err != nil {
		t.Fatal(err)
	}
	if w3.SHA256() == w1.SHA256() {
		t.Fatal("different seeds produced identical workloads")
	}
	if w1.Ops() == 0 {
		t.Fatal("workload has no ops")
	}
}

// TestShippedWorkloadDigests pins the canonical workload digest of every
// shipped scenario at seed 42. Any change to the generator or to the Op
// encoding that alters a single generated byte fails here, so refactors
// of the workload types must prove they left the wire bytes alone.
func TestShippedWorkloadDigests(t *testing.T) {
	want := map[string]string{
		"bind_storm.json":        "d806415daa906afe6bba4508900521fd41b4e25f3906e09c1c6d342db3dbf110",
		"calibration_drift.json": "d24d02bade08002541a474b5bb55901fe01d0ed2d26bc386df3b31a8106dfa77",
		"negative_slo.json":      "de56e01331808e3e61e4a48e8b155bd8ad51b9e4be2e29a3529cc6ca0dcb6213",
		"smoke.json":             "343c26024c7b4b866911263716b2e4931dbc5f9b3386472a60abdb32de39da76",
		"steady_mixed.json":      "02433a8422bca42017019d1e746e01ee2ff0220a5c186acdb33579d42970a943",
		"surge_multitenant.json": "5cbf933ae89d5cc678213f6a3a770c20d1959d5eae6133235fb1c17c25d0a71a",
	}
	matches, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != len(want) {
		t.Fatalf("found %d shipped scenarios, pinned %d: pin the new file's digest", len(matches), len(want))
	}
	for _, path := range matches {
		name := filepath.Base(path)
		s, err := LoadScenario(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, err := GenerateWorkload(s, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := w.SHA256(); got != want[name] {
			t.Errorf("%s: workload digest %s, want %s", name, got, want[name])
		}
	}
}

// TestWorkloadShape checks structural invariants of the generated ops:
// non-zero per-op seeds, monotone Poisson offsets inside the phase
// duration, parseable payloads, session binds carrying the ansatz's
// exact symbol set, and tenants drawn from the declared population.
func TestWorkloadShape(t *testing.T) {
	s := testScenario(t)
	w, err := GenerateWorkload(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(w.Phases))
	}
	open := w.Phases[0]
	if open.Closed {
		t.Error("poisson phase marked closed")
	}
	prev := 0.0
	tenants := map[string]bool{}
	for _, op := range open.Ops {
		if op.Kind != OpSubmit {
			t.Fatalf("mix phase generated op kind %q", op.Kind)
		}
		if op.Seed == 0 {
			t.Fatal("op with zero seed — the server would derive its own and break reproducibility")
		}
		if op.AtMs < prev || op.AtMs >= float64(open.DurationMs) {
			t.Fatalf("arrival offset %v out of order or past phase end", op.AtMs)
		}
		prev = op.AtMs
		if _, err := cqasm.Parse(op.CQASM); err != nil {
			t.Fatalf("op %d (%s) payload does not parse: %v", op.Index, op.Class, err)
		}
		tenants[op.Tenant] = true
	}
	if !tenants["a"] || !tenants["b"] {
		t.Errorf("tenant draw missed part of the population: %v", tenants)
	}
	binds := w.Phases[1]
	if !binds.Closed {
		t.Error("closed phase not marked closed")
	}
	opens := 0
	for _, op := range binds.Ops {
		switch op.Kind {
		case OpOpenSession:
			opens++
			if _, err := cqasm.Parse(op.CQASM); err != nil {
				t.Fatalf("session ansatz does not parse: %v", err)
			}
		case OpBind:
			if len(op.Values) != 4 {
				t.Fatalf("bind carries %d values, want 4 (2 layers x gamma+beta)", len(op.Values))
			}
			for _, sym := range []string{"gamma0", "gamma1", "beta0", "beta1"} {
				if _, ok := op.Values[sym]; !ok {
					t.Fatalf("bind missing symbol %s: %v", sym, op.Values)
				}
			}
			if op.Session < 0 || op.Session >= 2 {
				t.Fatalf("bind references session %d outside [0,2)", op.Session)
			}
		default:
			t.Fatalf("unexpected op kind %q in session phase", op.Kind)
		}
	}
	if opens != 2 {
		t.Fatalf("session phase opened %d sessions, want 2", opens)
	}
}

// TestVariantsAreCacheDistinct: distinct variants of one mix entry must
// submit distinct payloads (distinct compile-cache keys), while one
// variant is always byte-identical with itself.
func TestVariantsAreCacheDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]int{}
	for v := 0; v < 4; v++ {
		text, err := BuildClassCircuit("qft", 5, 0, v, rng)
		if err != nil {
			t.Fatal(err)
		}
		if prior, dup := seen[text]; dup {
			t.Fatalf("variants %d and %d produced identical circuits", prior, v)
		}
		seen[text] = v
	}
}

// TestBuildClassCircuitAllClasses exercises every registered class at
// its default shape and confirms the output parses as cQASM.
func TestBuildClassCircuitAllClasses(t *testing.T) {
	for _, class := range ClassNames() {
		def := classDefaults[class]
		rng := rand.New(rand.NewSource(7))
		text, err := BuildClassCircuit(class, def.qubits, def.depth, 1, rng)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if _, err := cqasm.Parse(text); err != nil {
			t.Fatalf("%s output does not parse: %v\n%s", class, err, text)
		}
		if !strings.Contains(text, "measure") {
			t.Errorf("%s circuit has no measurement", class)
		}
	}
	if _, err := BuildClassCircuit("nope", 4, 0, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("unknown class accepted")
	}
}

// TestDeriveNonZero: derived per-op seeds must never be zero (zero asks
// the service to derive its own, breaking replay determinism).
func TestDeriveNonZero(t *testing.T) {
	if derive(0) == 0 {
		t.Error("derive(0) returned 0")
	}
	seen := map[int64]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := derive(42, 0x0b, i)
		if v == 0 {
			t.Fatalf("derive produced zero at %d", i)
		}
		seen[v] = true
	}
	if len(seen) < 990 {
		t.Errorf("derive collides heavily: %d distinct of 1000", len(seen))
	}
}
