package qserv

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/accel"
	"repro/internal/anneal"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cqasm"
	"repro/internal/obs"
	"repro/internal/openql"
	"repro/internal/target"
)

// CompileEnv carries the shared compile resources the service hands each
// backend run: the two cache levels. A nil env (or nil fields) disables
// the corresponding resource.
type CompileEnv struct {
	// Cache is the full-artefact compile cache (level 2).
	Cache *CompileCache
	// Prefix is the platform-generic prefix-artefact cache (level 1).
	Prefix *PrefixCache
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

// DeviceProvider is implemented by backends that expose a hardware
// target description — the gate backends. The service uses it for the
// /backends view and to validate per-job calibration overrides at
// submit time.
type DeviceProvider interface {
	Device() *target.Device
}

// Recalibrator is implemented by backends whose device calibration can
// be replaced while the service runs — the backend half of
// PUT /backends/{name}/calibration. Recalibrate validates the table
// against the backend's device, applies it atomically (in-flight jobs
// finish against the old tables) and returns the re-calibrated device.
type Recalibrator interface {
	Recalibrate(cal *target.Calibration) (*target.Device, error)
}

// SessionBackend is implemented by backends that can pin a compiled —
// possibly parameterised — artefact for the variational session API
// (POST /sessions): the gate backends. CompileForSession compiles the
// request's program eagerly through the shared caches; the session then
// streams parameter bindings against the pinned artefact without ever
// re-entering the compiler.
type SessionBackend interface {
	Backend
	CompileForSession(r *Request, env *CompileEnv) (*core.Stack, *openql.Program, *openql.Compiled, bool, error)
}

// StackBackend runs gate jobs through a full core.Stack, caching compiled
// circuits across jobs. The stack is held behind an atomic pointer so
// live recalibration can swap it without stalling concurrent workers.
type StackBackend struct {
	stack atomic.Pointer[core.Stack]
}

// NewStackBackend wraps a stack as a service backend.
func NewStackBackend(s *core.Stack) *StackBackend {
	b := &StackBackend{}
	b.stack.Store(s)
	return b
}

// Stack returns the backend's current stack (recalibration replaces it).
func (b *StackBackend) Stack() *core.Stack { return b.stack.Load() }

// Name returns the stack name ("perfect", "superconducting", …).
func (b *StackBackend) Name() string { return b.Stack().Name }

// Device returns the device description behind the backend's stack
// (synthesised for hand-built platforms).
func (b *StackBackend) Device() *target.Device { return b.Stack().Platform.AsDevice() }

// Recalibrate overlays a new calibration table on the backend's device
// and swaps in a stack rebuilt for the re-calibrated device; compiler
// and execution tuning carry over (core.Stack.WithDevice). The new
// device hash keys fresh full-artefact cache entries, so no job ever
// reuses a compile against the stale tables, while platform-generic
// prefix artefacts stay live. Lock-free: concurrent recalibrations
// retry on a CAS.
func (b *StackBackend) Recalibrate(cal *target.Calibration) (*target.Device, error) {
	for {
		cur := b.stack.Load()
		dev := cur.Platform.AsDevice().WithCalibration(cal)
		if err := dev.Validate(); err != nil {
			return nil, err
		}
		next, err := cur.WithDevice(dev)
		if err != nil {
			return nil, err
		}
		if b.stack.CompareAndSwap(cur, next) {
			return dev, nil
		}
	}
}

// Accepts reports whether the request is a gate job.
func (b *StackBackend) Accepts(r *Request) bool { return r.CQASM != "" || r.Program != nil }

// resolveStack materialises the stack a request compiles and executes
// on: the backend's current stack with the request's device, calibration
// and pass overrides applied, plus the service's shared compile
// resources grafted on. The backend's own stack is never mutated —
// overrides copy.
func (b *StackBackend) resolveStack(r *Request, env *CompileEnv) (*core.Stack, error) {
	stack := b.Stack()
	if r.Target != nil || r.Calibration != nil {
		dev := r.Target
		if dev == nil {
			dev = b.Device()
		}
		if r.Calibration != nil {
			dev = dev.WithCalibration(r.Calibration)
		}
		// The device decides mode, platform, noise and microcode; the
		// backend's compiler and execution tuning carries over
		// (core.Stack.WithDevice).
		override, err := stack.WithDevice(dev)
		if err != nil {
			return nil, err
		}
		stack = override
	}
	if r.Passes != "" && r.Passes != stack.Passes {
		override := *stack
		override.Passes = r.Passes
		stack = &override
	}
	// Graft the service's prefix cache onto a copy of the stack: the cache
	// is per-service, not per-backend, and the stack itself is shared
	// across workers.
	if env != nil && env.Prefix != nil && stack.PrefixCache == nil {
		run := *stack
		run.PrefixCache = env.Prefix
		stack = &run
	}
	return stack, nil
}

// checkStack refuses, at submit, a gate job the routed backend's stack —
// device overrides applied — cannot run: a program wider than the stack,
// or a pass spec that cannot yield what the stack executes
// (compiler.Pipeline.CheckStages): no "schedule", or no "assemble" after
// it on a realistic stack. Without it such a job would be admitted and
// fail in the worker.
func checkStack(req *Request, b Backend) error {
	sb, ok := b.(interface {
		resolveStack(*Request, *CompileEnv) (*core.Stack, error)
	})
	if req.Program == nil || !ok {
		return nil
	}
	stack, err := sb.resolveStack(req, nil)
	if err != nil {
		return err
	}
	if need, have := req.Program.NumQubits, stack.Platform.NumQubits; need > have {
		return fmt.Errorf("qserv: program needs %d qubits, stack %q has %d", need, stack.Name, have)
	}
	if req.Passes == "" {
		return nil
	}
	pl, err := compiler.NewPipeline(stack.Passes)
	if err != nil {
		return err
	}
	return pl.CheckStages(stack.Mode == openql.RealisticQubits)
}

// compileOn compiles the program on the resolved stack through the
// shared full-artefact cache (a nil cache compiles uncached), attaching
// a "compile" phase span under span when tracing is live. canon is the
// program's canonicalText when admission already computed it, else "".
func compileOn(stack *core.Stack, p *openql.Program, canon string, cache *CompileCache, span *obs.Span) (*openql.Compiled, bool, error) {
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
		// Keyed on the compile fingerprint only. Symbolic programs hash their expressions, not any bound values,
		// so every binding of one parameterised program keys this same
		// entry.
		if canon == "" {
			canon = canonicalText(p)
		}
		key := cacheKey(stack.CompileFingerprint(), canon)
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
		// The engine that actually executed (auto dispatch resolved).
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

// Run compiles (or cache-fetches) the program and executes it. A per-job
// pass-spec override executes (and caches) under a copy of the stack with
// that spec, so jobs on one backend can pick their compile pipeline
// independently; it keys its own cache entry through CompileFingerprint. A device
// target or calibration override rebuilds the stack for the overridden
// device (core.NewStackForDevice), whose content hash keys distinct
// full-artefact cache entries — re-calibrating never reuses stale
// compiles. The prefix level is keyed independently (gate-set hash +
// prefix spec + kernel text), so those same overrides — and pass
// overrides that only change the suffix — still reuse the cached
// platform-generic prefix artefacts and recompile suffix-only.
func (b *StackBackend) Run(r *Request, seed int64, env *CompileEnv) (*Result, bool, error) {
	stack, p, compiled, hit, err := b.compile(r, env)
	if err != nil {
		return nil, false, err
	}
	rep, err := executeCompiled(stack, compiled, p.NumQubits, r.Shots, seed, env.span())
	if err != nil {
		return nil, hit, err
	}
	return &Result{Report: rep}, hit, nil
}

// CompileForSession eagerly compiles the request's gate program for the
// session API: it resolves the request's stack (device and pass
// overrides apply to every bind the session later streams) and compiles
// through the shared caches, preserving any symbolic parameters in the
// artefact. All bindings of one parameterised program share the single
// cache entry the session compile populated. Returns the resolved stack
// the session executes on, the program, the (possibly parametric)
// artefact and whether the compile was a full-artefact cache hit.
func (b *StackBackend) CompileForSession(r *Request, env *CompileEnv) (*core.Stack, *openql.Program, *openql.Compiled, bool, error) {
	return b.compile(r, env)
}

// compile is the gate backends' one compile path, shared by Run and
// CompileForSession: resolve the request's stack and compile its program
// through the shared caches under env's span. A cQASM request carries
// the program admission parsed from its text (Service.resolve).
func (b *StackBackend) compile(r *Request, env *CompileEnv) (*core.Stack, *openql.Program, *openql.Compiled, bool, error) {
	p := r.Program
	if p == nil {
		return nil, nil, nil, false, errors.New("qserv: gate request carries no program; cQASM text is parsed at admission (Service.Submit, Service.OpenSession)")
	}
	stack, err := b.resolveStack(r, env)
	if err != nil {
		return nil, nil, nil, false, err
	}
	var cache *CompileCache
	if env != nil {
		cache = env.Cache
	}
	compiled, hit, err := compileOn(stack, p, r.canon, cache, env.span())
	if err != nil {
		return nil, nil, nil, false, err
	}
	return stack, p, compiled, hit, nil
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
	// prefix passes over all kernels — already covered by the kernel
	// spans above, so skip them here.
	skip := 0
	if rep.PrefixSpec != "" {
		if passes, err := compiler.ParsePassSpec(rep.PrefixSpec); err == nil {
			skip = len(passes)
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

// AccelBackend adapts an accel.Accelerator — the annealers and classical
// co-processors of Fig 1 — to the service. build turns a request into an
// accelerator instance (configured with the per-job seed) plus its
// offloadable task, returning false when the payload does not fit.
type AccelBackend struct {
	Label string
	build func(r *Request, seed int64) (accel.Accelerator, accel.Task, bool)
}

// Name returns the backend label.
func (b *AccelBackend) Name() string { return b.Label }

// Accepts reports whether the accelerator can run the request.
func (b *AccelBackend) Accepts(r *Request) bool {
	_, _, ok := b.build(r, 0)
	return ok
}

// Run builds the task and offloads it to the wrapped accelerator.
func (b *AccelBackend) Run(r *Request, seed int64, _ *CompileEnv) (*Result, bool, error) {
	acc, t, ok := b.build(r, seed)
	if !ok {
		return nil, false, fmt.Errorf("qserv: backend %q cannot run this payload", b.Label)
	}
	out, err := acc.Execute(t)
	if err != nil {
		return nil, false, err
	}
	switch v := out.(type) {
	case *anneal.Result:
		return &Result{Anneal: v}, false, nil
	case *core.Report:
		return &Result{Report: v}, false, nil
	default:
		return nil, false, fmt.Errorf("qserv: backend %q returned unexpected %T", b.Label, out)
	}
}

// NewAnnealBackend wraps the simulated quantum annealer (or the digital
// annealer when digital is true) as a QUBO backend; each job anneals with
// its own derived seed.
func NewAnnealBackend(label string, digital bool, sqa anneal.SQAOptions, da anneal.DigitalAnnealerOptions) *AccelBackend {
	return &AccelBackend{
		Label: label,
		build: func(r *Request, seed int64) (accel.Accelerator, accel.Task, bool) {
			if r.QUBO == nil {
				return nil, nil, false
			}
			jobSQA, jobDA := sqa, da
			jobSQA.Seed, jobDA.Seed = seed, seed
			acc := &accel.AnnealAccelerator{Digital: digital, SQA: jobSQA, DA: jobDA}
			return acc, accel.AnnealTask{Q: r.QUBO}, true
		},
	}
}

// NewClassicalFallback returns the classical co-processor stand-in: it
// brute-forces QUBOs of at most maxVars variables exactly — the fallback
// lane for problems small enough that quantum offload is not worth it.
func NewClassicalFallback(label string, maxVars int) *AccelBackend {
	acc := &accel.ClassicalAccelerator{Label: label}
	return &AccelBackend{
		Label: label,
		build: func(r *Request, _ int64) (accel.Accelerator, accel.Task, bool) {
			if r.QUBO == nil || r.QUBO.N > maxVars {
				return nil, nil, false
			}
			q := r.QUBO
			return acc, accel.ClassicalTask{
				Name: "qubo-bruteforce",
				F: func() (interface{}, error) {
					bits, energy := q.BruteForce()
					spins := make([]int, len(bits))
					for i, b := range bits {
						spins[i] = 2*b - 1
					}
					return &anneal.Result{Spins: spins, Bits: bits, Energy: energy}, nil
				},
			}, true
		},
	}
}

// Compile-time interface checks.
var (
	_ Backend        = (*StackBackend)(nil)
	_ Backend        = (*AccelBackend)(nil)
	_ DeviceProvider = (*StackBackend)(nil)
	_ Recalibrator   = (*StackBackend)(nil)
	_ SessionBackend = (*StackBackend)(nil)
)
