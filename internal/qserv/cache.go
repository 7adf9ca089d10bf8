package qserv

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"repro/internal/compiler"
	"repro/internal/openql"
)

// cacheKey derives the compiled-circuit cache key from the stack's
// compiler fingerprint and the program's canonical kernel text: two
// submissions with equal keys compile to identical artefacts.
func cacheKey(stackFingerprint, programText string) string {
	h := sha256.New()
	h.Write([]byte(stackFingerprint))
	h.Write([]byte{0})
	h.Write([]byte(programText))
	return hex.EncodeToString(h.Sum(nil))
}

// flightCache is a bounded LRU cache with singleflight semantics over
// values of type V: concurrent lookups of the same missing key are
// deduplicated — one caller computes, the rest wait for its result.
// It backs both levels of the two-level compile cache (full artefacts
// and platform-generic prefix artefacts).
type flightCache[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[string]*flightEntry[V]
	lru     *list.List // front = most recently used; element values are *flightEntry[V]
	hits    uint64
	misses  uint64
}

type flightEntry[V any] struct {
	key   string
	ready chan struct{} // closed once val/err are set
	val   V
	err   error
	elem  *list.Element
}

func newFlightCache[V any](max int) *flightCache[V] {
	if max < 1 {
		max = 1
	}
	return &flightCache[V]{
		max:     max,
		entries: map[string]*flightEntry[V]{},
		lru:     list.New(),
	}
}

// getOrCompute returns the value for key, invoking compute at most once
// per missing key across concurrent callers. The second return reports
// whether the result was served from cache (a waiter on an in-flight
// computation counts as a hit: it skipped the work).
func (c *flightCache[V]) getOrCompute(key string, compute func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	e := &flightEntry[V]{key: key, ready: make(chan struct{})}
	c.misses++
	c.entries[key] = e
	e.elem = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		// Evict the least-recently-used entry. Waiters on an evicted
		// in-flight entry still hold the entry pointer, so they observe
		// its result once ready closes; only the map loses the reference.
		back := c.lru.Back()
		victim := back.Value.(*flightEntry[V])
		c.lru.Remove(back)
		victim.elem = nil
		delete(c.entries, victim.key)
	}
	c.mu.Unlock()

	val, err := compute()
	c.mu.Lock()
	e.val, e.err = val, err
	if err != nil {
		// Failed computations are not cached; later callers retry.
		if e.elem != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
		}
		if cur, ok := c.entries[key]; ok && cur == e {
			delete(c.entries, key)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return val, false, err
}

// clear empties the cache and resets the hit/miss counters.
func (c *flightCache[V]) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Detach live entries from the old list first: an in-flight
	// computation that later fails must not Remove a stale element from
	// the re-init'd list (list.Remove would corrupt its length).
	//qlint:nondeterministic-ok order-independent: detaches every entry identically; no output depends on visit order
	for _, e := range c.entries {
		e.elem = nil
	}
	c.entries = map[string]*flightEntry[V]{}
	c.lru.Init()
	c.hits, c.misses = 0, 0
}

// stats returns a snapshot of the cache counters.
func (c *flightCache[V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len()}
}

// CompileCache is the full-artefact level of the two-level compile
// cache: a bounded LRU of compiled programs shared by all gate backends
// of a service, keyed by (compile fingerprint, program text). Concurrent
// lookups of the same missing key are deduplicated: one caller compiles,
// the rest wait for its result. Cached *openql.Compiled values are
// shared across jobs and must be treated as immutable
// (core.Stack.RunCompiled only reads them).
type CompileCache struct {
	c *flightCache[*openql.Compiled]
}

// NewCompileCache returns a cache holding at most max entries (minimum 1).
func NewCompileCache(max int) *CompileCache {
	return &CompileCache{c: newFlightCache[*openql.Compiled](max)}
}

// GetOrCompile returns the compiled program for key, invoking compile at
// most once per missing key across concurrent callers. The second return
// reports whether the result was served from cache (a waiter on an
// in-flight compile counts as a hit: it skipped the compile pipeline).
func (c *CompileCache) GetOrCompile(key string, compile func() (*openql.Compiled, error)) (*openql.Compiled, bool, error) {
	return c.c.getOrCompute(key, compile)
}

// Clear empties the cache and resets the hit/miss counters.
func (c *CompileCache) Clear() { c.c.clear() }

// Stats returns a snapshot of the cache counters.
func (c *CompileCache) Stats() CacheStats { return c.c.stats() }

// PrefixCache is the prefix-artefact level of the two-level compile
// cache: a bounded LRU of per-kernel platform-generic prefix artefacts
// (circuits after decompose/optimize/fold-rotations), keyed by
// (gate-set hash, prefix pass spec, kernel text) — deliberately NOT by
// the device content hash, scheduling policy or mapping options, none of
// which the prefix passes can observe. Recompiles that only change those
// therefore re-run just the variant suffix against cached prefix
// artefacts, and re-calibrating a device leaves its prefix entries live.
// It implements compiler.PrefixCache, the interface openql consults
// mid-compile.
type PrefixCache struct {
	c *flightCache[*compiler.PrefixArtefact]
}

// NewPrefixCache returns a cache holding at most max entries (minimum 1).
func NewPrefixCache(max int) *PrefixCache {
	return &PrefixCache{c: newFlightCache[*compiler.PrefixArtefact](max)}
}

// GetOrCompute returns the prefix artefact for key, invoking compute at
// most once per missing key across concurrent callers. The second return
// reports whether the artefact was served from cache.
func (c *PrefixCache) GetOrCompute(key string, compute func() (*compiler.PrefixArtefact, error)) (*compiler.PrefixArtefact, bool, error) {
	return c.c.getOrCompute(key, compute)
}

// Clear empties the cache and resets the hit/miss counters.
func (c *PrefixCache) Clear() { c.c.clear() }

// Stats returns a snapshot of the cache counters.
func (c *PrefixCache) Stats() CacheStats { return c.c.stats() }

// Compile-time check: the prefix cache plugs into the compiler layer.
var _ compiler.PrefixCache = (*PrefixCache)(nil)

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}
