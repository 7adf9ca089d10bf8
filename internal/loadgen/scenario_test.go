package loadgen

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMalformedScenarioCorpus rejects every fixture under
// testdata/malformed with a *FieldError carrying the exact field path
// of the defect — the contract that lets a broken scenario file point
// at its own offending line.
func TestMalformedScenarioCorpus(t *testing.T) {
	wantPath := map[string]string{
		"unknown_class.json":          "phases[0].mix[1].class",
		"negative_rate.json":          "phases[0].arrival.rate_per_sec",
		"missing_slo_p95.json":        "slo.p95_ms",
		"missing_slo_error_rate.json": "slo.max_error_rate",
		"missing_name.json":           "name",
		"zero_seed.json":              "seeds",
		"bad_event_kind.json":         "events[0].kind",
		"event_after_end.json":        "events[0].at_ms",
		"duplicate_phase.json":        "phases[1].name",
		"compare_unknown_phase.json":  "slo.compare[0].better",
		"even_qec_distance.json":      "phases[0].mix[0].qubits",
		"closed_without_clients.json": "phases[0].arrival.clients",
		"session_with_mix.json":       "phases[0].mix",
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "malformed"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		seen[name] = true
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "malformed", name))
			if err != nil {
				t.Fatal(err)
			}
			_, err = ParseScenario(data)
			if err == nil {
				t.Fatal("malformed scenario parsed without error")
			}
			want, ok := wantPath[name]
			if !ok {
				// Fixtures outside the table (e.g. unknown_field.json) must
				// still fail, via the strict JSON decoder.
				if name != "unknown_field.json" {
					t.Fatalf("fixture %s missing from the expectation table", name)
				}
				if !strings.Contains(err.Error(), "unknown field") {
					t.Fatalf("want strict-decoder rejection, got %v", err)
				}
				return
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("want *FieldError, got %T: %v", err, err)
			}
			if fe.Path != want {
				t.Fatalf("field path = %q, want %q (msg: %s)", fe.Path, want, fe.Msg)
			}
		})
	}
	for name := range wantPath {
		if !seen[name] {
			t.Errorf("expected fixture %s not present in testdata/malformed", name)
		}
	}
}

// TestShippedScenariosParse keeps the scenarios/ directory honest:
// every shipped scenario file must parse and validate.
func TestShippedScenariosParse(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 5 {
		t.Fatalf("expected at least 5 shipped scenarios, found %d", len(matches))
	}
	for _, path := range matches {
		s, err := LoadScenario(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(s.Seeds) != 3 && filepath.Base(path) != "negative_slo.json" {
			t.Errorf("%s: normalized to %d seeds, want the 3-seed BLIS default", path, len(s.Seeds))
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	s, err := ParseScenario([]byte(`{
		"name": "n",
		"phases": [{
			"name": "p", "duration_ms": 100,
			"arrival": {"process": "poisson", "rate_per_sec": 5},
			"mix": [{"class": "qaoa"}]
		}],
		"slo": {"p95_ms": 100, "max_error_rate": 0.1,
		        "compare": [{"metric": "p95_ms", "better": "p", "worse": "p"}]}
	}`))
	if err == nil {
		t.Fatal("self-compare must be rejected")
	}
	s, err = ParseScenario([]byte(`{
		"name": "n",
		"phases": [
			{"name": "a", "duration_ms": 100,
			 "arrival": {"process": "poisson", "rate_per_sec": 5},
			 "mix": [{"class": "qaoa"}]},
			{"name": "b", "duration_ms": 100,
			 "arrival": {"process": "closed", "clients": 2},
			 "sessions": {"count": 1}}
		],
		"slo": {"p95_ms": 100, "max_error_rate": 0.1,
		        "compare": [{"metric": "p95_ms", "better": "a", "worse": "b"}]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Seeds; len(got) != 3 || got[0] != 42 || got[1] != 123 || got[2] != 456 {
		t.Errorf("default seeds = %v, want [42 123 456]", got)
	}
	m := s.Phases[0].Mix[0]
	if m.Qubits != 6 || m.Depth != 2 || m.Variants != 4 || m.Backend != "perfect" || m.Shots != 64 || m.Weight != 1 {
		t.Errorf("qaoa mix defaults = %+v", m)
	}
	ss := s.Phases[1].Sessions
	if ss.Layers != 2 || ss.Qubits != 6 || ss.Backend != "perfect" || ss.Shots != 64 {
		t.Errorf("session defaults = %+v", ss)
	}
	if s.Service.Qubits != 10 || s.Service.Workers != 2 || s.Service.Queue != 256 {
		t.Errorf("service defaults = %+v", s.Service)
	}
	if s.SLO.Compare[0].MinEffect != 0.20 {
		t.Errorf("compare min_effect default = %v, want 0.20 (BLIS effect-size floor)", s.SLO.Compare[0].MinEffect)
	}
}
