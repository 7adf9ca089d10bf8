package core

import (
	"testing"

	"repro/internal/target"
)

// TestPrefixFingerprintInvariance pins the two-level cache-key contract:
// every configuration change that only affects the variant suffix —
// recalibration, a scheduling-policy or mapping-option spec variant, a
// suffix-only pass change — must rotate CompileFingerprint (full artefacts are stale) but
// leave PrefixFingerprint unchanged (prefix artefacts stay live), while
// a gate-set change must rotate both.
func TestPrefixFingerprintInvariance(t *testing.T) {
	base := NewSuperconducting(1)

	suffixOnly := []struct {
		name, passes string
	}{
		{"policy", "decompose,optimize,map,lower-swaps,optimize-lowered,schedule(policy=alap),assemble"},
		{"mapping", "decompose,optimize,map(lookahead=4),lower-swaps,optimize-lowered,schedule,assemble"},
		{"suffix-pass-options", "decompose,optimize,map(strategy=noise),lower-swaps,optimize-lowered,schedule,assemble"},
	}
	for _, tc := range suffixOnly {
		v := NewSuperconducting(1)
		v.Passes = tc.passes
		if v.CompileFingerprint() == base.CompileFingerprint() {
			t.Errorf("%s: CompileFingerprint must rotate", tc.name)
		}
		if v.PrefixFingerprint() != base.PrefixFingerprint() {
			t.Errorf("%s: PrefixFingerprint must NOT rotate", tc.name)
		}
	}

	// Recalibration: full fingerprint rotates, prefix fingerprint stays.
	dev := target.Superconducting()
	cal := dev.Calibration.Clone()
	for i := range cal.Qubits {
		cal.Qubits[i].ReadoutError *= 2
	}
	recal, err := NewStackForDevice(dev.WithCalibration(cal), 1)
	if err != nil {
		t.Fatal(err)
	}
	if recal.CompileFingerprint() == base.CompileFingerprint() {
		t.Error("recalibration: CompileFingerprint must rotate")
	}
	if recal.PrefixFingerprint() != base.PrefixFingerprint() {
		t.Error("recalibration: PrefixFingerprint must NOT rotate")
	}

	// The semiconducting preset shares the superconducting primitive set
	// (only durations, topology and calibration differ — all suffix
	// inputs), so the two stacks share prefix artefacts by design. A
	// genuinely different gate set — perfect's everything-is-primitive
	// empty table — rotates the prefix fingerprint.
	semi := NewSemiconducting(1)
	if semi.PrefixFingerprint() != base.PrefixFingerprint() {
		t.Error("same primitive set at different timings must share a prefix fingerprint")
	}
	if NewPerfect(5, 1).PrefixFingerprint() == base.PrefixFingerprint() {
		t.Error("different gate sets must have different prefix fingerprints")
	}

	// A prefix pass change rotates the prefix fingerprint.
	noOpt := NewSuperconducting(1)
	noOpt.Passes = "decompose,map,lower-swaps,schedule,assemble"
	if noOpt.PrefixFingerprint() == base.PrefixFingerprint() {
		t.Error("dropping optimize must rotate the prefix fingerprint")
	}
}
