package compiler

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/circuit"
)

// Pass is one retargetable stage of the compiler pipeline (Fig 4): it
// reads and rewrites the artefacts carried by a PassContext. Passes are
// stateless — one table entry is shared by every concurrent compilation —
// with all per-run configuration read from the context, the pass's spec
// options included.
//
// A pass mutates only what it allocated during this compile. Its input
// circuit may be the caller's program, a prefix-cache entry or part of
// a cached artefact, all shared across goroutines, so a pass builds its
// output as new gate slices, may copy gate values into them (sharing
// their operand and parameter slices), and gives a gate fresh slices
// before changing its operands or parameters. A pass that changes
// nothing may hand its input's gate slice on, clipped to its length, so
// no pass appends to or writes into the circuit it receives. Artefacts
// are immutable once returned.
type Pass interface {
	Name() string
	Run(ctx *PassContext) error
}

// PassContext carries the artefacts a compilation accumulates as it moves
// down the pipeline: the circuit being rewritten plus the mapping,
// schedule and assembly outputs, alongside the immutable target
// configuration the passes read.
type PassContext struct {
	// Platform is the compilation target; never nil.
	Platform *Platform
	// Assemble enables target-assembly passes (realistic targets); when
	// false the assemble pass is a no-op, matching perfect-qubit targets
	// that execute cQASM directly.
	Assemble bool
	// Assembler lowers the scheduled circuit to the target's executable
	// form, storing the result in Assembled. It is injected by the layer
	// that owns the assembly format — the openql layer injects eQASM
	// assembly, which sits above this package in the import graph.
	Assembler func(*PassContext) error
	// ProgramName labels assembly output.
	ProgramName string
	// Options carries the current pass's spec options (e.g. the
	// lookahead=8 of "map(lookahead=8)"), the only per-pass
	// configuration; the pipeline sets it before each pass runs. Nil when
	// the entry carried none.
	Options PassOptions

	// Circuit is the gate stream being rewritten; every pass leaves it
	// valid for the next.
	Circuit *circuit.Circuit
	// MapResult is set by the map pass (nil for all-to-all targets).
	MapResult *MapResult
	// SwapsLowered is set by the lower-swaps pass when it decomposed
	// routing SWAPs; optimize-lowered keys off it.
	SwapsLowered bool
	// Schedule is set by the schedule pass.
	Schedule *Schedule
	// Assembled holds the output of the injected Assembler (the openql
	// layer stores an *eqasm.Program); the compiler core never inspects
	// it.
	Assembled any
}

// builtin is one entry of the fixed pass table (see builtins).
type builtin struct {
	name string
	run  func(ctx *PassContext) error
	// check validates the pass's spec options at parse time; nil when
	// the pass takes none.
	check func(PassOptions) error
	// generic marks a platform-generic pass: its output depends only on
	// the circuit and the platform's native gate set (Platform.Gates /
	// Platform.Supports) — never on topology, timings, control limits,
	// calibration data or spec options. The leading run of such passes is
	// the cacheable prefix of a pipeline (see Pipeline.Split and
	// PrefixArtefact), cached across mapping, scheduling and calibration
	// variants, so any hidden dependency would serve stale artefacts.
	generic bool
}

func (p *builtin) Name() string               { return p.name }
func (p *builtin) Run(ctx *PassContext) error { return p.run(ctx) }

// IsGeneric reports whether a pass is platform-generic.
func IsGeneric(p Pass) bool {
	b, ok := p.(*builtin)
	return ok && b.generic
}

// lookupPass finds a built-in pass by name (nil when there is none).
func lookupPass(name string) *builtin {
	for _, p := range builtins {
		if p.name == name {
			return p
		}
	}
	return nil
}

// PassNames returns the sorted names of every built-in pass.
func PassNames() []string {
	out := make([]string, len(builtins))
	for i, p := range builtins {
		out[i] = p.name
	}
	sort.Strings(out)
	return out
}

// DefaultPassSpec is the pipeline an empty pass spec selects, equivalent
// to the classic hard-wired compiler flow: decompose to primitives,
// optimise, map to the topology (hop-count routing, trivial placement, no
// lookahead), lower routing SWAPs to primitives, re-optimise the lowered
// SWAP chains (optimize-lowered no-ops when lower-swaps had nothing to
// do, exactly like the classic flow), schedule ASAP, assemble.
const DefaultPassSpec = "decompose,optimize,map,lower-swaps,optimize-lowered,schedule,assemble"

// PassMetrics records one pass execution: wall time plus the circuit-size
// observables that make compile-path hot spots and pass effectiveness
// visible.
type PassMetrics struct {
	Pass        string `json:"pass"`
	WallNs      int64  `json:"wall_ns"`
	GatesBefore int    `json:"gates_before"`
	GatesAfter  int    `json:"gates_after"`
	DepthBefore int    `json:"depth_before"`
	DepthAfter  int    `json:"depth_after"`
	// AddedSwaps is the number of routing SWAPs the pass inserted
	// (nonzero only for mapping passes).
	AddedSwaps int `json:"added_swaps,omitempty"`
}

// KernelCompile records one kernel's trip through the platform-generic
// prefix of the pipeline when a program compiles kernel-by-kernel.
type KernelCompile struct {
	Kernel string `json:"kernel"`
	// PrefixCached marks the kernel's prefix artefact as served from the
	// prefix cache — the prefix passes did not run for it.
	PrefixCached bool `json:"prefix_cached,omitempty"`
	// WallNs is the kernel's prefix compile time (0 on a cache hit).
	WallNs int64 `json:"wall_ns"`
	// Passes are the kernel's prefix pass metrics (absent on cache hits).
	Passes []PassMetrics `json:"passes,omitempty"`
}

// CompileReport is the per-pass account of one pipeline execution. When
// the program compiled kernel-by-kernel (a non-empty platform-generic
// prefix), the prefix rows in Passes aggregate over the kernels that
// actually ran the prefix — gate counts, depths and wall time summed —
// while Kernels carries the per-kernel breakdown and PrefixHits counts
// the kernels whose artefact came from the prefix cache (their pass
// metrics are excluded from Passes: nothing ran for them).
type CompileReport struct {
	PassSpec string        `json:"pass_spec"`
	Passes   []PassMetrics `json:"passes"`
	TotalNs  int64         `json:"total_ns"`
	// PrefixSpec is the canonical spec of the pipeline's platform-generic
	// prefix (empty when the pipeline has none or compiled in one shot).
	PrefixSpec string `json:"prefix_spec,omitempty"`
	// PrefixHits counts kernels served from the prefix cache.
	PrefixHits int `json:"prefix_hits,omitempty"`
	// Kernels is the per-kernel prefix account, in program order.
	Kernels []KernelCompile `json:"kernels,omitempty"`
}

// String renders the report as an aligned table, one row per pass, plus
// a prefix-cache summary line when the program compiled kernel-by-kernel.
func (r *CompileReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %14s %14s %6s\n", "pass", "time", "gates", "depth", "swaps")
	for _, m := range r.Passes {
		swaps := "-"
		if m.AddedSwaps > 0 {
			swaps = fmt.Sprintf("%d", m.AddedSwaps)
		}
		fmt.Fprintf(&b, "%-16s %12s %14s %14s %6s\n",
			m.Pass, time.Duration(m.WallNs).String(),
			fmt.Sprintf("%d → %d", m.GatesBefore, m.GatesAfter),
			fmt.Sprintf("%d → %d", m.DepthBefore, m.DepthAfter),
			swaps)
	}
	fmt.Fprintf(&b, "%-16s %12s\n", "total", time.Duration(r.TotalNs).String())
	if len(r.Kernels) > 0 {
		fmt.Fprintf(&b, "kernels %d  prefix %q  cache hits %d/%d\n",
			len(r.Kernels), r.PrefixSpec, r.PrefixHits, len(r.Kernels))
	}
	return b.String()
}

// Pipeline is an ordered, named pass list — the configurable compiler of
// the pass-manager architecture. Build one with NewPipeline and execute
// it with Run; a Pipeline is immutable and safe for concurrent Run calls
// on distinct contexts.
type Pipeline struct {
	Spec   string
	passes []BoundPass
}

// NewPipeline parses a pass spec — including per-pass options such as
// "map(lookahead=8,strategy=noise)" — into an executable pipeline.
func NewPipeline(spec string) (*Pipeline, error) {
	passes, err := ResolveSpec(spec)
	if err != nil {
		return nil, err
	}
	return &Pipeline{Spec: spec, passes: passes}, nil
}

// Passes returns the pipeline's pass names in execution order.
func (pl *Pipeline) Passes() []string {
	out := make([]string, len(pl.passes))
	for i, p := range pl.passes {
		out[i] = p.Pass.Name()
	}
	return out
}

// Len returns the number of passes in the pipeline.
func (pl *Pipeline) Len() int { return len(pl.passes) }

// Canonical renders the whole pipeline the way Split renders its halves
// (options sorted by key, no whitespace), so equivalent spellings of one
// spec render equal.
func (pl *Pipeline) Canonical() string { return canonicalSpec(pl.passes) }

// CheckStages verifies, before anything runs, that the pipeline yields
// what execution needs: a "schedule" pass and, when assemble is set (a
// realistic target executing eQASM), an "assemble" pass after it.
func (pl *Pipeline) CheckStages(assemble bool) error {
	scheduled, assembled := false, false
	for _, bp := range pl.passes {
		switch bp.Pass.Name() {
		case "schedule":
			scheduled = true
		case "assemble":
			assembled = assembled || scheduled
		}
	}
	switch {
	case !scheduled:
		return fmt.Errorf("compiler: pass spec %q has no schedule; include the \"schedule\" pass", pl.Spec)
	case assemble && !assembled:
		return fmt.Errorf("compiler: pass spec %q produces no eQASM for a realistic target; include the \"assemble\" pass after \"schedule\"", pl.Spec)
	}
	return nil
}

// Split partitions the pipeline into its platform-generic prefix — the
// longest leading run of passes marked generic (see NewGenericPass) —
// and the variant suffix (mapping, scheduling, assembly: everything
// that depends on topology, timings, calibration or per-variant
// options). Both halves are executable pipelines over the same bound
// passes; their Spec fields are canonical renderings (options sorted by
// key), so equivalent spellings of a prefix produce equal cache keys.
// Either half may be empty (Len 0); running an empty pipeline is a
// no-op that returns an empty report.
func (pl *Pipeline) Split() (prefix, suffix *Pipeline) {
	n := 0
	for _, bp := range pl.passes {
		if !IsGeneric(bp.Pass) {
			break
		}
		n++
	}
	return pl.slice(0, n), pl.slice(n, len(pl.passes))
}

// slice returns the sub-pipeline over passes[i:j] with a canonical spec.
func (pl *Pipeline) slice(i, j int) *Pipeline {
	sub := pl.passes[i:j]
	return &Pipeline{Spec: canonicalSpec(sub), passes: sub}
}

// canonicalSpec renders bound passes back to a normalized spec string:
// comma-separated names with options sorted by key, no whitespace.
func canonicalSpec(passes []BoundPass) string {
	var b strings.Builder
	for i, bp := range passes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(bp.Pass.Name())
		if len(bp.Options) > 0 {
			keys := make([]string, 0, len(bp.Options))
			for k := range bp.Options {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteByte('(')
			for j, k := range keys {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(k)
				b.WriteByte('=')
				b.WriteString(bp.Options[k])
			}
			b.WriteByte(')')
		}
	}
	return b.String()
}

// Run executes the pipeline over the context, recording per-pass wall
// time, gate count, depth and added SWAPs. On error it reports which pass
// failed.
func (pl *Pipeline) Run(ctx *PassContext) (*CompileReport, error) {
	if ctx.Platform == nil {
		return nil, fmt.Errorf("compiler: pipeline %q run without a platform", pl.Spec)
	}
	if ctx.Circuit == nil {
		return nil, fmt.Errorf("compiler: pipeline %q run without a circuit", pl.Spec)
	}
	report := &CompileReport{PassSpec: pl.Spec, Passes: make([]PassMetrics, 0, len(pl.passes))}
	if len(pl.passes) == 0 {
		return report, nil
	}
	// Nothing mutates the circuit between passes, and a pass never
	// writes into the circuit it receives (see Pass), so each pass's
	// before metrics are the previous pass's after metrics, and the depth
	// is rescanned only after a pass that replaced the circuit — schedule
	// and assemble keep it.
	gates, depth := len(ctx.Circuit.Gates), ctx.Circuit.Depth()
	for _, bp := range pl.passes {
		in := ctx.Circuit
		p := bp.Pass
		m := PassMetrics{
			Pass:        p.Name(),
			GatesBefore: gates,
			DepthBefore: depth,
		}
		swapsBefore := 0
		if ctx.MapResult != nil {
			swapsBefore = ctx.MapResult.AddedSwaps
		}
		ctx.Options = bp.Options
		start := time.Now()
		if err := p.Run(ctx); err != nil {
			return nil, fmt.Errorf("compiler: pass %q: %w", p.Name(), err)
		}
		m.WallNs = time.Since(start).Nanoseconds()
		if ctx.Circuit != in {
			gates, depth = len(ctx.Circuit.Gates), ctx.Circuit.Depth()
		}
		m.GatesAfter = gates
		m.DepthAfter = depth
		if ctx.MapResult != nil {
			m.AddedSwaps = ctx.MapResult.AddedSwaps - swapsBefore
		}
		report.TotalNs += m.WallNs
		report.Passes = append(report.Passes, m)
	}
	return report, nil
}
