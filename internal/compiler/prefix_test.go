package compiler

import (
	"testing"

	"repro/internal/target"
)

func TestPipelineSplit(t *testing.T) {
	cases := []struct {
		spec   string
		prefix string
		suffix string
	}{
		{
			spec:   DefaultPassSpec,
			prefix: "decompose,optimize",
			suffix: "map,lower-swaps,optimize-lowered,schedule,assemble",
		},
		{
			spec:   "decompose,map,lower-swaps,schedule,assemble",
			prefix: "decompose",
			suffix: "map,lower-swaps,schedule,assemble",
		},
		{
			// fold-rotations is generic: it extends the prefix.
			spec:   "decompose,optimize,fold-rotations,schedule",
			prefix: "decompose,optimize,fold-rotations",
			suffix: "schedule",
		},
		{
			// A pipeline that opens with a variant pass has no prefix.
			spec:   "map,schedule",
			prefix: "",
			suffix: "map,schedule",
		},
		{
			// A generic pass after a variant pass stays in the suffix:
			// only the leading run is cacheable.
			spec:   "decompose,map,optimize,schedule",
			prefix: "decompose",
			suffix: "map,optimize,schedule",
		},
		{
			// Canonical rendering: whitespace dropped, options sorted.
			spec:   " decompose , optimize, map( strategy=noise , lookahead=8 ) ,schedule ",
			prefix: "decompose,optimize",
			suffix: "map(lookahead=8,strategy=noise),schedule",
		},
	}
	for _, tc := range cases {
		pl, err := NewPipeline(tc.spec)
		if err != nil {
			t.Fatalf("NewPipeline(%q): %v", tc.spec, err)
		}
		prefix, suffix := pl.Split()
		if prefix.Spec != tc.prefix {
			t.Errorf("Split(%q) prefix = %q, want %q", tc.spec, prefix.Spec, tc.prefix)
		}
		if suffix.Spec != tc.suffix {
			t.Errorf("Split(%q) suffix = %q, want %q", tc.spec, suffix.Spec, tc.suffix)
		}
		if prefix.Len()+suffix.Len() != pl.Len() {
			t.Errorf("Split(%q) loses passes: %d + %d != %d",
				tc.spec, prefix.Len(), suffix.Len(), pl.Len())
		}
	}
}

func TestIsGenericRegistry(t *testing.T) {
	generic := map[string]bool{
		"decompose":      true,
		"optimize":       true,
		"fold-rotations": true,
	}
	for _, name := range PassNames() {
		p := lookupPass(name)
		if p == nil {
			t.Fatalf("registered pass %q not found", name)
		}
		if got := IsGeneric(p); got != generic[name] {
			t.Errorf("IsGeneric(%q) = %v, want %v", name, got, generic[name])
		}
	}
}

// TestGateSetHash pins the prefix-cache keying contract: the hash tracks
// the native gate set and nothing else — re-calibrating a device rotates
// its content hash but not its gate-set hash, which is what keeps prefix
// artefacts live across recalibrations.
func TestGateSetHash(t *testing.T) {
	sc := Superconducting()
	if sc.GateSetHash() != sc.GateSetHash() {
		t.Fatal("GateSetHash is not stable")
	}
	// The two hardware presets share one primitive gate set at different
	// speeds: durations are suffix-only, so their prefix artefacts are
	// interchangeable and their gate-set hashes must agree.
	if sc.GateSetHash() != Semiconducting().GateSetHash() {
		t.Error("same gate names at different durations must share a gate-set hash")
	}
	if sc.GateSetHash() == Perfect(5).GateSetHash() {
		t.Error("different gate sets must hash differently")
	}

	dev := target.Superconducting()
	cal := dev.Calibration.Clone()
	for i := range cal.Edges {
		cal.Edges[i].TwoQubitError *= 3
	}
	recal := PlatformFor(dev.WithCalibration(cal))
	if sc.ContentHash() == recal.ContentHash() {
		t.Error("recalibration must rotate the content hash")
	}
	if sc.GateSetHash() != recal.GateSetHash() {
		t.Error("recalibration must NOT rotate the gate-set hash")
	}
}

func TestPrefixKeyDistinct(t *testing.T) {
	base := PrefixKey("g", "decompose,optimize", "circuit")
	for _, k := range []string{
		PrefixKey("g2", "decompose,optimize", "circuit"),
		PrefixKey("g", "decompose", "circuit"),
		PrefixKey("g", "decompose,optimize", "circuit2"),
	} {
		if k == base {
			t.Error("prefix keys must differ when any component differs")
		}
	}
	if PrefixKey("g", "decompose,optimize", "circuit") != base {
		t.Error("prefix keys must be deterministic")
	}
}
