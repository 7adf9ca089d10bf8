package compiler

// Two-level compilation support: the platform-generic prefix of a
// pipeline (decompose, optimize, fold-rotations — passes whose output
// depends only on the circuit and the platform's native gate set) can be
// compiled once per kernel and cached independently of the mapping,
// scheduling and calibration configuration the variant suffix depends
// on. This file holds the artefact type the prefix stage produces, the
// cache interface higher layers (qserv) implement, and the key
// derivation both sides agree on.

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/circuit"
)

// PrefixArtefact is the output of one kernel's run through a pipeline's
// platform-generic prefix: the rewritten circuit plus the per-pass
// metrics recorded while building it. Artefacts are shared across
// compilations by the prefix cache and are immutable: consumers copy the
// stored gates by value into their own slices, and the passes that read
// them never rewrite a gate they did not allocate (see Pass).
type PrefixArtefact struct {
	// Circuit is the kernel circuit after the prefix passes; immutable.
	Circuit *circuit.Circuit
	// Passes are the prefix pass metrics from the compilation that built
	// the artefact (informational on cache hits: the fetch skipped them).
	Passes []PassMetrics
}

// PrefixCache is the level-1 store of the two-level compile cache: it
// maps prefix keys (see PrefixKey) to prefix artefacts, deduplicating
// concurrent computations of the same missing key. The boolean result
// reports whether the artefact was served from cache. qserv implements
// it with an LRU + singleflight cache shared by all gate backends.
type PrefixCache interface {
	GetOrCompute(key string, compute func() (*PrefixArtefact, error)) (*PrefixArtefact, bool, error)
}

// PrefixKey derives the cache key of one kernel's prefix artefact from
// everything the prefix passes can observe: the platform's gate-set hash
// (Platform.GateSetHash — deliberately excluding topology, timings and
// calibration, which only the suffix reads), the canonical prefix pass
// spec, and the kernel's canonical circuit text. Re-calibrating a device
// therefore leaves prefix keys unchanged — only the full-artefact cache,
// keyed on the complete compile fingerprint, rotates — which is exactly
// what lets a recalibration recompile suffix-only.
func PrefixKey(gateSetHash, prefixSpec, kernelText string) string {
	h := sha256.New()
	h.Write([]byte(gateSetHash))
	h.Write([]byte{0})
	h.Write([]byte(prefixSpec))
	h.Write([]byte{0})
	h.Write([]byte(kernelText))
	return hex.EncodeToString(h.Sum(nil))
}
