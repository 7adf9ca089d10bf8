package qserv

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/anneal"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cqasm"
	"repro/internal/obs"
	"repro/internal/openql"
	"repro/internal/qubo"
	"repro/internal/target"
)

// CompileEnv carries the shared compile resources the service hands each
// backend run. A nil env (or nil fields) disables the corresponding
// resource.
type CompileEnv struct {
	// Cache is the full-artefact compile cache (level 2). The prefix
	// level rides on the gate backends' stacks (Service.AddBackend).
	Cache *CompileCache
	// Span is the job's run span, under which the backend attaches
	// compile and execute phase spans (nil — the usual shared env —
	// disables tracing; the service hands workers a per-job copy
	// carrying the span).
	Span *obs.Span
}

// span returns the job's run span (nil for a nil env).
func (e *CompileEnv) span() *obs.Span {
	if e == nil {
		return nil
	}
	return e.Span
}

// Backend is one execution target behind the service's worker pools. Run
// must be safe for concurrent use: workers of the same pool call it in
// parallel.
type Backend interface {
	Name() string
	// Accepts reports whether the backend can run the request's payload.
	Accepts(r *Request) bool
	// Run executes the request with the given per-job seed, consulting the
	// shared compile caches in env (nil disables caching). It returns the
	// result and whether the compile step was a full-artefact cache hit.
	Run(r *Request, seed int64, env *CompileEnv) (*Result, bool, error)
}

// StackBackend runs gate jobs through a full core.Stack, caching compiled
// circuits across jobs. The stack is held, with its compile fingerprint,
// behind an atomic pointer so live recalibration can swap it without
// stalling concurrent workers. The service reaches it through gateBackend,
// also when a wrapper embeds it.
type StackBackend struct {
	cur atomic.Pointer[storedStack]
}

// storedStack is a backend's stack with its compile fingerprint, computed
// once when the stack is stored rather than per job.
type storedStack struct {
	stack *core.Stack
	fp    string
}

// gateBackend is the one way the service reaches the *StackBackend behind
// a pool: the backend itself, or one a wrapper embeds.
type gateBackend interface{ gate() *StackBackend }

func (b *StackBackend) gate() *StackBackend { return b }

// NewStackBackend wraps a stack as a service backend.
func NewStackBackend(s *core.Stack) *StackBackend {
	b := &StackBackend{}
	b.store(s)
	return b
}

// store swaps in a stack with its freshly computed fingerprint.
func (b *StackBackend) store(s *core.Stack) {
	b.cur.Store(&storedStack{stack: s, fp: s.CompileFingerprint()})
}

// usePrefix stores a copy of the stack carrying the service's prefix
// cache, unless the stack brought its own. Stacks derived from it — job
// overrides and recalibrations, through core.Stack.WithDevice — carry it
// on. Service.AddBackend calls it before any job runs.
func (b *StackBackend) usePrefix(pc *PrefixCache) {
	cur := b.cur.Load()
	if cur.stack.PrefixCache != nil {
		return
	}
	s := *cur.stack
	s.PrefixCache = pc
	b.cur.Store(&storedStack{stack: &s, fp: cur.fp})
}

// Stack returns the backend's current stack (recalibration replaces it).
func (b *StackBackend) Stack() *core.Stack { return b.cur.Load().stack }

// Name returns the stack name ("perfect", "superconducting", …).
func (b *StackBackend) Name() string { return b.Stack().Name }

// Device returns the device description behind the backend's stack
// (synthesised for hand-built platforms).
func (b *StackBackend) Device() *target.Device { return b.Stack().Platform.AsDevice() }

// Recalibrate overlays a new calibration table on the backend's device
// and swaps in a stack rebuilt for the re-calibrated device, which
// core.Stack.WithDevice validates; compiler and execution tuning, the
// prefix cache included, carry over. Jobs admitted earlier keep the
// stack they were admitted with. The new device hash keys fresh
// full-artefact cache entries, so no later job reuses a compile against
// the stale tables, while platform-generic prefix artefacts stay live.
// Lock-free: concurrent recalibrations retry on a CAS.
func (b *StackBackend) Recalibrate(cal *target.Calibration) (*target.Device, error) {
	for {
		cur := b.cur.Load()
		dev := cur.stack.Platform.AsDevice().WithCalibration(cal)
		next, err := cur.stack.WithDevice(dev)
		if err != nil {
			return nil, err
		}
		if b.cur.CompareAndSwap(cur, &storedStack{stack: next, fp: next.CompileFingerprint()}) {
			return dev, nil
		}
	}
}

// Accepts reports whether the request is a gate job.
func (b *StackBackend) Accepts(r *Request) bool { return r.CQASM != "" || r.Program != nil }

// compileOn compiles the program on the job's resolved stack through
// the shared full-artefact cache under key, the job's admitted cache key
// (a nil cache compiles uncached), attaching a "compile" phase span under
// span when tracing is live.
func compileOn(stack *core.Stack, p *openql.Program, key string, cache *CompileCache, span *obs.Span) (*openql.Compiled, bool, error) {
	var (
		compiled *openql.Compiled
		hit      bool
		err      error
	)
	cspan := span.StartChild("compile")
	compileStart := time.Now()
	if cache == nil {
		cspan.SetAttr("cache", "off")
		compiled, err = stack.Compile(p)
	} else {
		compiled, hit, err = cache.GetOrCompile(key, func() (*openql.Compiled, error) {
			return stack.Compile(p)
		})
		if err == nil {
			if hit {
				cspan.SetAttr("cache", "hit")
			} else {
				cspan.SetAttr("cache", "miss")
			}
		}
	}
	if err != nil {
		cspan.SetAttr("error", err.Error())
		cspan.End()
		return nil, false, err
	}
	if !hit {
		synthesizeCompileSpans(cspan, compileStart, compiled.Report)
	}
	cspan.End()
	return compiled, hit, nil
}

// executeCompiled runs a concrete artefact on the stack under an
// "execute" phase span, decorating it with shot count and the engine's
// measured wall time.
func executeCompiled(stack *core.Stack, compiled *openql.Compiled, numQubits, shots int, seed int64, span *obs.Span) (*core.Report, error) {
	espan := span.StartChild("execute")
	rep, err := stack.RunCompiled(compiled, numQubits, shots, seed)
	if err != nil {
		espan.SetAttr("error", err.Error())
		espan.End()
		return nil, err
	}
	if espan != nil {
		espan.SetAttr("shots", strconv.Itoa(shots))
		// The engine that actually executed (qx.Dispatch resolved).
		if rep.Engine != "" {
			espan.SetAttr("engine", rep.Engine)
		}
		if rep.ExecNs > 0 {
			// The engine's measured wall time, anchored so the span ends
			// where the execute phase does.
			d := time.Duration(rep.ExecNs)
			eng := espan.ChildAt("engine", time.Now().Add(-d), d)
			if rep.Engine != "" {
				eng.SetAttr("engine", rep.Engine)
			}
			if res := rep.Result; res != nil && res.Batches > 0 {
				eng.SetAttr("shot_batches", strconv.Itoa(res.Batches))
			}
		}
	}
	espan.End()
	return rep, nil
}

// Run compiles (or cache-fetches) the program on the stack admission
// resolved for the job (Service.resolve) and executes it there. A job
// with device, calibration or pass overrides runs on its own stack,
// whose compile fingerprint keys distinct full-artefact cache entries;
// the prefix level is keyed independently (gate-set hash + prefix spec +
// kernel text), so those overrides — and pass overrides that only change
// the suffix — still reuse the cached platform-generic prefix artefacts
// and recompile suffix-only.
func (b *StackBackend) Run(r *Request, seed int64, env *CompileEnv) (*Result, bool, error) {
	if r.stack == nil {
		return nil, false, errors.New("qserv: gate request was not admitted; Service.Submit resolves the stack it runs on")
	}
	var cache *CompileCache
	if env != nil {
		cache = env.Cache
	}
	compiled, hit, err := compileOn(r.stack, r.Program, r.key, cache, env.span())
	if err != nil {
		return nil, false, err
	}
	rep, err := executeCompiled(r.stack, compiled, r.Program.NumQubits, r.Shots, seed, env.span())
	if err != nil {
		return nil, hit, err
	}
	return &Result{Report: rep}, hit, nil
}

// synthesizeCompileSpans grafts the compile report's timing records
// under the compile span: one span per kernel's trip through the
// platform-generic prefix (kernels may have compiled in parallel, so
// each starts at the compile start with its own wall time — overlap is
// honest) and one span per suffix pass row, laid end to end. Offsets
// within the compile span are approximate; durations are the measured
// wall times.
func synthesizeCompileSpans(parent *obs.Span, start time.Time, rep *compiler.CompileReport) {
	if parent == nil || rep == nil {
		return
	}
	for _, k := range rep.Kernels {
		ks := parent.ChildAt("kernel:"+k.Kernel, start, time.Duration(k.WallNs))
		if k.PrefixCached {
			ks.SetAttr("prefix_cached", "true")
		}
	}
	// The leading rows of a kernel-by-kernel compile aggregate the
	// prefix passes over the kernels that ran them — already covered by
	// the kernel spans above, so skip them here. When every kernel hit
	// the prefix cache the report holds no prefix rows at all.
	skip := 0
	for _, k := range rep.Kernels {
		if !k.PrefixCached {
			skip = len(k.Passes)
			break
		}
	}
	at := start
	for i, m := range rep.Passes {
		if i < skip {
			continue
		}
		d := time.Duration(m.WallNs)
		ps := parent.ChildAt("pass:"+m.Pass, at, d)
		ps.SetAttr("gates", strconv.Itoa(m.GatesBefore)+"->"+strconv.Itoa(m.GatesAfter))
		if m.AddedSwaps > 0 {
			ps.SetAttr("added_swaps", strconv.Itoa(m.AddedSwaps))
		}
		at = at.Add(d)
	}
}

// canonicalText renders the program's kernel partition canonically: one
// content hash per kernel (iterations unrolled, names ignored — see
// openql.Kernel.ContentHash), NUL-joined. The same gate stream submitted
// as cQASM text or built via the OpenQL API keys to one entry, while
// programs that split the same gates across different kernel boundaries
// key distinct entries — they genuinely compile differently, since the
// platform-generic prefix runs per kernel and never optimises across
// kernel boundaries.
func canonicalText(p *openql.Program) string {
	var b strings.Builder
	// The register width leads the key: kernel hashes already fold it in,
	// but a zero-kernel program must still key distinctly per width (its
	// compiled artefact is a width-sized empty circuit).
	fmt.Fprintf(&b, "q%d", p.NumQubits)
	b.WriteByte(0)
	for _, k := range p.Kernels {
		b.WriteString(k.ContentHash(p.NumQubits))
		b.WriteByte(0)
	}
	return b.String()
}

// parseCQASM parses and validates cQASM text (cqasm.Parse validates) and
// lifts its flattened circuit into an OpenQL program named name
// ("cqasm" when empty).
func parseCQASM(name, text string) (*openql.Program, error) {
	prog, err := cqasm.Parse(text)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = "cqasm"
	}
	return openql.ProgramFromCircuit(name, prog.Flatten()), nil
}

// QUBOBackend is a QUBO lane of the Fig 1 host: the simulated quantum
// annealer, or the classical co-processor stand-in. It accepts a QUBO of
// at most maxVars variables and minimises it with solve, given the job's
// derived seed.
type QUBOBackend struct {
	Label   string
	maxVars int
	solve   func(q *qubo.QUBO, seed int64) *anneal.Result
}

// Name returns the backend label.
func (b *QUBOBackend) Name() string { return b.Label }

// Accepts reports whether the request is a QUBO the lane can take.
func (b *QUBOBackend) Accepts(r *Request) bool {
	return r.QUBO != nil && r.QUBO.N <= b.maxVars
}

// Run minimises the request's QUBO.
func (b *QUBOBackend) Run(r *Request, seed int64, _ *CompileEnv) (*Result, bool, error) {
	return &Result{Anneal: b.solve(r.QUBO, seed)}, false, nil
}

// NewAnnealBackend wraps the simulated quantum annealer as a QUBO backend
// of any size; each job anneals with sqa and its own derived seed.
func NewAnnealBackend(label string, sqa anneal.SQAOptions) *QUBOBackend {
	return &QUBOBackend{
		Label:   label,
		maxVars: math.MaxInt,
		solve: func(q *qubo.QUBO, seed int64) *anneal.Result {
			opts := sqa
			opts.Seed = seed
			return anneal.SolveQUBOQuantum(q, opts)
		},
	}
}

// NewClassicalFallback returns the classical co-processor stand-in: it
// brute-forces QUBOs of at most maxVars variables exactly — the fallback
// lane for problems small enough that quantum offload is not worth it.
func NewClassicalFallback(label string, maxVars int) *QUBOBackend {
	return &QUBOBackend{
		Label:   label,
		maxVars: maxVars,
		solve: func(q *qubo.QUBO, _ int64) *anneal.Result {
			bits, energy := q.BruteForce()
			return &anneal.Result{Spins: qubo.BitsToSpins(bits), Bits: bits, Energy: energy}
		},
	}
}

// Compile-time interface checks.
var (
	_ Backend     = (*StackBackend)(nil)
	_ Backend     = (*QUBOBackend)(nil)
	_ gateBackend = (*StackBackend)(nil)
)
