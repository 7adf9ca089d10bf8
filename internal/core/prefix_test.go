package core

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/openql"
	"repro/internal/target"
)

// mapPrefixCache is an unbounded compiler.PrefixCache: a key compiled
// once is served from the map on every later lookup.
type mapPrefixCache map[string]*compiler.PrefixArtefact

func (c mapPrefixCache) GetOrCompute(key string, compute func() (*compiler.PrefixArtefact, error)) (*compiler.PrefixArtefact, bool, error) {
	if art, ok := c[key]; ok {
		return art, true, nil
	}
	art, err := compute()
	if err != nil {
		return nil, false, err
	}
	c[key] = art
	return art, false, nil
}

// TestPrefixKeyInvariance pins the two-level cache-key contract on the
// keys production compiles hand the prefix cache (compiler.PrefixKey):
// every configuration change that only affects the variant suffix —
// recalibration, a scheduling-policy or mapping-option spec variant, a
// suffix-only pass change — must rotate CompileFingerprint (full
// artefacts are stale) but serve every kernel's prefix from a cache the
// base stack filled, while a gate-set or prefix-pass change must miss.
func TestPrefixKeyInvariance(t *testing.T) {
	prog := openql.NewProgram("invariance", 3)
	prog.AddKernel(openql.NewKernel("prep", 3).H(0).CNOT(0, 1).RZ(2, 0.3))
	prog.AddKernel(openql.NewKernel("body", 3).CNOT(1, 2).H(1).Measure(0).Measure(1).Measure(2))
	base := NewSuperconducting(1)
	// prefixHits compiles prog on s against a prefix cache the base
	// stack filled and returns how many kernels the cache served.
	prefixHits := func(name string, s *Stack) int {
		t.Helper()
		cache := mapPrefixCache{}
		base.PrefixCache, s.PrefixCache = cache, cache
		if _, err := base.Compile(prog); err != nil {
			t.Fatalf("%s: base: %v", name, err)
		}
		compiled, err := s.Compile(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return compiled.Report.PrefixHits
	}
	shared := func(name string, s *Stack) {
		t.Helper()
		if s.CompileFingerprint() == base.CompileFingerprint() {
			t.Errorf("%s: CompileFingerprint must rotate", name)
		}
		if got := prefixHits(name, s); got != len(prog.Kernels) {
			t.Errorf("%s: %d of %d kernels served from the prefix cache, want all", name, got, len(prog.Kernels))
		}
	}
	rotated := func(name string, s *Stack) {
		t.Helper()
		if got := prefixHits(name, s); got != 0 {
			t.Errorf("%s: %d kernels served from the prefix cache, want none", name, got)
		}
	}

	for _, tc := range []struct {
		name, passes string
	}{
		{"policy", "decompose,optimize,map,lower-swaps,optimize-lowered,schedule(policy=alap),assemble"},
		{"mapping", "decompose,optimize,map(lookahead=4),lower-swaps,optimize-lowered,schedule,assemble"},
		{"suffix-pass-options", "decompose,optimize,map(strategy=noise),lower-swaps,optimize-lowered,schedule,assemble"},
	} {
		v := NewSuperconducting(1)
		v.Passes = tc.passes
		shared(tc.name, v)
	}

	dev := target.Superconducting()
	cal := dev.Calibration.Clone()
	for i := range cal.Qubits {
		cal.Qubits[i].ReadoutError *= 2
	}
	recal, err := NewStackForDevice(dev.WithCalibration(cal), 1)
	if err != nil {
		t.Fatal(err)
	}
	shared("recalibration", recal)

	// The semiconducting preset shares the superconducting primitive set
	// (only durations, topology and calibration differ — all suffix
	// inputs), so the two stacks share prefix artefacts by design. A
	// genuinely different gate set — perfect's everything-is-primitive
	// empty table — rotates the prefix key.
	shared("semiconducting", NewSemiconducting(1))
	rotated("perfect", NewPerfect(5, 1))

	noOpt := NewSuperconducting(1)
	noOpt.Passes = "decompose,map,lower-swaps,schedule,assemble"
	rotated("prefix pass change", noOpt)
}
