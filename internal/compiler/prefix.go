package compiler

// Two-level compilation support: the platform-generic prefix of a
// pipeline (decompose, optimize, fold-rotations — passes whose output
// depends only on the circuit and the platform's native gate set) can be
// compiled once per kernel and cached independently of the mapping,
// scheduling and calibration configuration the variant suffix depends
// on. This file holds the artefact type the prefix stage produces, the
// cache interface higher layers (qserv) implement, the shared worker
// gate that bounds kernel-compile parallelism service-wide, and the key
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

// WorkerGate is a counting semaphore shared by every compilation of a
// service: it bounds the total number of kernel-compile goroutines
// across concurrent jobs, so per-program parallelism cannot multiply
// with the worker pools above it and oversubscribe the machine. A nil
// WorkerGate imposes no bound. Tokens are acquired one at a time around
// each kernel's prefix run and released immediately after, so gated
// compilations cannot deadlock (no goroutine ever holds a token while
// waiting for another).
type WorkerGate chan struct{}

// NewWorkerGate returns a gate admitting at most n concurrent kernel
// compilations (minimum 1).
func NewWorkerGate(n int) WorkerGate {
	if n < 1 {
		n = 1
	}
	return make(WorkerGate, n)
}

// Acquire takes a token, blocking while n compilations are in flight.
// A nil gate admits immediately.
func (g WorkerGate) Acquire() {
	if g != nil {
		g <- struct{}{}
	}
}

// Release returns a token taken by Acquire. A no-op on a nil gate.
func (g WorkerGate) Release() {
	if g != nil {
		<-g
	}
}
