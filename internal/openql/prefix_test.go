package openql

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/compiler"
)

// mapPrefixCache is a minimal compiler.PrefixCache for tests: a map with
// counters, no eviction, no singleflight.
type mapPrefixCache struct {
	mu     sync.Mutex
	m      map[string]*compiler.PrefixArtefact
	hits   int
	misses int
}

func newMapPrefixCache() *mapPrefixCache {
	return &mapPrefixCache{m: map[string]*compiler.PrefixArtefact{}}
}

func (c *mapPrefixCache) GetOrCompute(key string, compute func() (*compiler.PrefixArtefact, error)) (*compiler.PrefixArtefact, bool, error) {
	c.mu.Lock()
	if a, ok := c.m[key]; ok {
		c.hits++
		c.mu.Unlock()
		return a, true, nil
	}
	c.mu.Unlock()
	a, err := compute()
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	c.m[key] = a
	c.misses++
	c.mu.Unlock()
	return a, false, nil
}

// multiKernelProgram builds a program whose kernels exercise decompose
// (toffoli, swap), optimize (cancelling pairs) and routing.
func multiKernelProgram(n int) *Program {
	p := NewProgram("multi", n)
	k1 := NewKernel("prep", n)
	for q := 0; q < n; q++ {
		k1.H(q)
	}
	k1.Toffoli(0, 1, 2)
	p.AddKernel(k1)
	k2 := NewKernel("mix", n).CNOT(0, 1).CNOT(1, 2).RZ(0, 0.3).RZ(0, 0.4)
	k2.Gate("swap", []int{0, 2})
	p.AddKernel(k2)
	k3 := NewKernel("loop", n).RY(1, 0.7).CZ(1, 3).Repeat(3)
	p.AddKernel(k3)
	k4 := NewKernel("meas", n)
	for q := 0; q < n; q++ {
		k4.Measure(q)
	}
	p.AddKernel(k4)
	return p
}

func assertSameCompiled(t *testing.T, label string, want, got *Compiled) {
	t.Helper()
	if want.CQASM() != got.CQASM() {
		t.Fatalf("%s: compiled cQASM differs", label)
	}
	if want.Schedule.Makespan != got.Schedule.Makespan {
		t.Fatalf("%s: makespan %d != %d", label, want.Schedule.Makespan, got.Schedule.Makespan)
	}
	if (want.EQASM == nil) != (got.EQASM == nil) {
		t.Fatalf("%s: eQASM presence differs", label)
	}
	if want.EQASM != nil && want.EQASM.String() != got.EQASM.String() {
		t.Fatalf("%s: eQASM differs", label)
	}
}

// TestPrefixCacheSuffixOnlyRecompile proves the two-level contract: with
// a warm prefix cache, a recompile that only changes scheduling policy
// or mapping options fetches every kernel's prefix artefact (PrefixHits
// = kernel count, no prefix pass rows in the report) and still produces
// artefacts identical to an uncached compile of the same variant.
func TestPrefixCacheSuffixOnlyRecompile(t *testing.T) {
	prog := multiKernelProgram(5)
	cache := newMapPrefixCache()
	base := CompileOptions{
		Mode:        RealisticQubits,
		Platform:    compiler.Superconducting(),
		PrefixCache: cache,
	}
	cold, err := prog.Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report.PrefixHits != 0 {
		t.Fatalf("cold compile reported %d prefix hits", cold.Report.PrefixHits)
	}
	if cache.misses != len(prog.Kernels) {
		t.Fatalf("cold compile missed %d times, want %d", cache.misses, len(prog.Kernels))
	}

	variants := []CompileOptions{base, base, base}
	variants[0].Passes = "decompose,optimize,map,lower-swaps,optimize-lowered,schedule(policy=alap),assemble"
	variants[1].Passes = "decompose,optimize,map(lookahead=true,window=4),lower-swaps,optimize-lowered,schedule,assemble"
	variants[2].Passes = "decompose,optimize,map(strategy=noise),lower-swaps,optimize-lowered,schedule,assemble"
	for i, opts := range variants {
		warm, err := prog.Compile(opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if warm.Report.PrefixHits != len(prog.Kernels) {
			t.Fatalf("variant %d: %d prefix hits, want %d",
				i, warm.Report.PrefixHits, len(prog.Kernels))
		}
		for _, m := range warm.Report.Passes {
			if m.Pass == "decompose" || m.Pass == "optimize" {
				t.Fatalf("variant %d: prefix pass %q ran despite full prefix hit", i, m.Pass)
			}
		}
		uncachedOpts := opts
		uncachedOpts.PrefixCache = nil
		uncached, err := prog.Compile(uncachedOpts)
		if err != nil {
			t.Fatalf("variant %d uncached: %v", i, err)
		}
		assertSameCompiled(t, fmt.Sprintf("variant %d", i), uncached, warm)
	}
}

// keyRecordingCache wraps mapPrefixCache and records every key it is
// asked for.
type keyRecordingCache struct {
	mapPrefixCache
	keys []string
}

func (c *keyRecordingCache) GetOrCompute(key string, compute func() (*compiler.PrefixArtefact, error)) (*compiler.PrefixArtefact, bool, error) {
	c.keys = append(c.keys, key)
	return c.mapPrefixCache.GetOrCompute(key, compute)
}

// TestPrefixCacheKeysMatchDerivation ties the production key path to its
// documented derivation: the keys Compile hands the prefix cache must be
// exactly compiler.PrefixKey over (Platform.GateSetHash, canonical
// prefix spec, Kernel.ContentHash), the derivation core's
// TestPrefixKeyInvariance exercises through real compiles.
func TestPrefixCacheKeysMatchDerivation(t *testing.T) {
	prog := multiKernelProgram(5)
	cache := &keyRecordingCache{mapPrefixCache: *newMapPrefixCache()}
	platform := compiler.Superconducting()
	if _, err := prog.Compile(CompileOptions{
		Mode:        RealisticQubits,
		Platform:    platform,
		PrefixCache: cache,
	}); err != nil {
		t.Fatal(err)
	}
	pl, err := compiler.NewPipeline(compiler.DefaultPassSpec)
	if err != nil {
		t.Fatal(err)
	}
	prefix, _ := pl.Split()
	want := make([]string, len(prog.Kernels))
	for i, k := range prog.Kernels {
		want[i] = compiler.PrefixKey(platform.GateSetHash(), prefix.Spec, k.ContentHash(prog.NumQubits))
	}
	if len(cache.keys) != len(want) {
		t.Fatalf("cache consulted %d times, want %d", len(cache.keys), len(want))
	}
	for i := range want {
		if cache.keys[i] != want[i] {
			t.Errorf("kernel %d key = %s, want PrefixKey(GateSetHash, %q, ContentHash) = %s",
				i, cache.keys[i], prefix.Spec, want[i])
		}
	}
}

// TestKernelBoundaryBarrier pins the semantics change the per-kernel
// prefix makes deliberate: the peephole optimiser no longer merges gates
// across kernel boundaries — kernels are separately-offloaded units of
// classical control — while gates within one kernel still cancel.
func TestKernelBoundaryBarrier(t *testing.T) {
	split := NewProgram("split", 1)
	split.AddKernel(NewKernel("a", 1).X(0).H(0))
	split.AddKernel(NewKernel("b", 1).H(0).X(0))
	joined := NewProgram("joined", 1)
	joined.AddKernel(NewKernel("ab", 1).X(0).H(0).H(0).X(0))

	opts := CompileOptions{Mode: PerfectQubits, Platform: compiler.Perfect(1)}
	compiledSplit, err := split.Compile(opts)
	if err != nil {
		t.Fatal(err)
	}
	compiledJoined, err := joined.Compile(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(compiledJoined.Circuit.Gates); n != 0 {
		t.Fatalf("single-kernel x·h·h·x should cancel entirely, kept %d gates", n)
	}
	if n := len(compiledSplit.Circuit.Gates); n != 4 {
		t.Fatalf("kernel boundary must act as an optimisation barrier: want 4 gates, got %d", n)
	}
}

// TestKernelContentHash pins that the canonical kernel identity is
// independent of kernel and program names but sensitive to register
// size, iteration count, gate parameters and conditional bindings — and
// that unrolling n iterations equals writing the gates out n times.
func TestKernelContentHash(t *testing.T) {
	a := NewKernel("alpha", 2).H(0).CNOT(0, 1)
	b := NewKernel("beta", 2).H(0).CNOT(0, 1)
	if a.ContentHash(3) != b.ContentHash(3) {
		t.Error("kernel names must not affect the content hash")
	}
	if a.ContentHash(2) == a.ContentHash(3) {
		t.Error("register size must affect the content hash")
	}
	c := NewKernel("gamma", 2).H(0).CNOT(0, 1).Repeat(2)
	if a.ContentHash(3) == c.ContentHash(3) {
		t.Error("iteration counts must affect the content hash")
	}
	unrolled := NewKernel("delta", 2).H(0).CNOT(0, 1).H(0).CNOT(0, 1)
	if c.ContentHash(3) != unrolled.ContentHash(3) {
		t.Error("n iterations must hash like the gates written out n times")
	}
	if NewKernel("r", 1).RZ(0, 0.5).ContentHash(1) == NewKernel("r", 1).RZ(0, 0.25).ContentHash(1) {
		t.Error("gate parameters must affect the content hash")
	}
}
