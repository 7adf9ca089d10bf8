// Package openql implements the programming layer of the stack (§2.4): a
// builder API in the style of the OpenQL language, producing kernels of
// quantum gates wrapped in classical control, and a compiler entry point
// that lowers programs through decomposition, optimisation, mapping and
// scheduling to cQASM — and on to eQASM for hardware-style targets.
// "The OpenQL compiler translates the program to a common assembly
// language, called cQASM … in a subsequent step the compiler can convert
// the cQASM to generate the eQASM."
package openql

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/cqasm"
	"repro/internal/eqasm"
	"repro/internal/target"
)

// QubitMode selects the qubit abstraction of §2.1.
type QubitMode int

// Qubit modes.
const (
	// PerfectQubits have no decoherence and no errors; connectivity
	// constraints are waived unless a topology is forced.
	PerfectQubits QubitMode = iota
	// RealisticQubits carry error models and the platform's topology and
	// timing constraints.
	RealisticQubits
)

func (m QubitMode) String() string {
	if m == RealisticQubits {
		return "realistic"
	}
	return "perfect"
}

// Kernel is a named block of quantum logic, optionally iterated — the
// unit the host offloads to the accelerator.
type Kernel struct {
	Name       string
	Iterations int
	c          *circuit.Circuit
}

// NewKernel returns an empty kernel over n qubits.
func NewKernel(name string, n int) *Kernel {
	return &Kernel{Name: name, Iterations: 1, c: circuit.New(name, n)}
}

// Gate appends a gate by registry name.
func (k *Kernel) Gate(name string, qubits []int, params ...float64) *Kernel {
	k.c.Add(name, qubits, params...)
	return k
}

// RXExpr appends an X rotation with a symbolic angle.
func (k *Kernel) RXExpr(q int, theta *circuit.ParamExpr) *Kernel { k.c.RXExpr(q, theta); return k }

// RYExpr appends a Y rotation with a symbolic angle.
func (k *Kernel) RYExpr(q int, theta *circuit.ParamExpr) *Kernel { k.c.RYExpr(q, theta); return k }

// RZExpr appends a Z rotation with a symbolic angle.
func (k *Kernel) RZExpr(q int, theta *circuit.ParamExpr) *Kernel { k.c.RZExpr(q, theta); return k }

// CPhaseExpr appends a controlled phase with a symbolic angle.
func (k *Kernel) CPhaseExpr(a, b int, theta *circuit.ParamExpr) *Kernel {
	k.c.CPhaseExpr(a, b, theta)
	return k
}

// Convenience single-gate builders mirroring the OpenQL API.

// H appends a Hadamard.
func (k *Kernel) H(q int) *Kernel { k.c.H(q); return k }

// X appends a Pauli-X.
func (k *Kernel) X(q int) *Kernel { k.c.X(q); return k }

// Y appends a Pauli-Y.
func (k *Kernel) Y(q int) *Kernel { k.c.Y(q); return k }

// Z appends a Pauli-Z.
func (k *Kernel) Z(q int) *Kernel { k.c.Z(q); return k }

// RX appends an X rotation.
func (k *Kernel) RX(q int, theta float64) *Kernel { k.c.RX(q, theta); return k }

// RY appends a Y rotation.
func (k *Kernel) RY(q int, theta float64) *Kernel { k.c.RY(q, theta); return k }

// RZ appends a Z rotation.
func (k *Kernel) RZ(q int, theta float64) *Kernel { k.c.RZ(q, theta); return k }

// CNOT appends a controlled-NOT.
func (k *Kernel) CNOT(control, target int) *Kernel { k.c.CNOT(control, target); return k }

// CZ appends a controlled-Z.
func (k *Kernel) CZ(a, b int) *Kernel { k.c.CZ(a, b); return k }

// Toffoli appends a doubly-controlled NOT.
func (k *Kernel) Toffoli(a, b, target int) *Kernel { k.c.Toffoli(a, b, target); return k }

// Measure appends a Z measurement.
func (k *Kernel) Measure(q int) *Kernel { k.c.Measure(q); return k }

// MeasureAll measures every qubit.
func (k *Kernel) MeasureAll() *Kernel { k.c.MeasureAll(); return k }

// PrepZ resets a qubit to |0>.
func (k *Kernel) PrepZ(q int) *Kernel { k.c.PrepZ(q); return k }

// Barrier appends a scheduling barrier.
func (k *Kernel) Barrier() *Kernel { k.c.Barrier(); return k }

// Repeat sets the kernel's iteration count (classical loop construct).
func (k *Kernel) Repeat(n int) *Kernel {
	if n < 1 {
		n = 1
	}
	k.Iterations = n
	return k
}

// Circuit returns a copy of the kernel's gate list as a flat circuit,
// iterations unrolled.
func (k *Kernel) Circuit() *circuit.Circuit {
	out := circuit.New(k.Name, k.c.NumQubits)
	for i := 0; i < k.Iterations; i++ {
		out.Append(k.c)
	}
	return out
}

// ContentHash returns a stable hash of the kernel's unrolled gate stream
// over a register of programQubits — the canonical identity compile
// caches key kernels by, so the same gate sequence keys one entry
// whether it was built with the builder API, parsed from cQASM text, or
// embedded in differently-named programs. Kernel and program names are
// deliberately excluded; register size, gate order, operands, exact
// parameter bits, conditional bindings and the iteration count all enter
// the hash. The encoding is length-prefixed binary (no float formatting):
// hashing sits on the per-compile cache path and must stay far cheaper
// than the passes it short-circuits.
func (k *Kernel) ContentHash(programQubits int) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(programQubits))
	// Iterations are hashed by unrolling, matching Kernel.Circuit, so a
	// kernel repeated twice equals the same gates written out twice.
	for it := 0; it < k.Iterations; it++ {
		for _, g := range k.c.Gates {
			h.Write([]byte(g.Name))
			h.Write([]byte{0})
			word(uint64(len(g.Qubits)))
			for _, q := range g.Qubits {
				word(uint64(q))
			}
			word(uint64(len(g.Params)))
			for i, p := range g.Params {
				if g.Symbolic(i) {
					// Symbolic slots hash the expression's canonical form,
					// not the placeholder literal — every binding of one
					// ansatz therefore shares a single hash, which is what
					// lets all bindings share one entry in both cache
					// levels. The all-ones tag word (a NaN bit pattern no
					// real angle uses) keeps symbolic and literal slots
					// from ever colliding.
					word(^uint64(0))
					for _, w := range g.Exprs[i].HashWords() {
						word(w)
					}
				} else {
					word(math.Float64bits(p))
				}
			}
			if g.HasCond {
				word(1)
				word(uint64(g.CondBit))
			} else {
				word(0)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// KernelFromCircuit wraps a copy of an existing flat circuit as a kernel,
// so gate sequences produced outside the builder API (e.g. parsed from
// cQASM text) can enter the compiler pipeline.
func KernelFromCircuit(name string, c *circuit.Circuit) *Kernel {
	cc := circuit.New(name, c.NumQubits)
	cc.Append(c)
	return &Kernel{Name: name, Iterations: 1, c: cc}
}

// Program is an OpenQL program: an ordered list of kernels over a shared
// qubit register.
type Program struct {
	Name      string
	NumQubits int
	Kernels   []*Kernel
}

// NewProgram returns an empty program.
func NewProgram(name string, n int) *Program {
	return &Program{Name: name, NumQubits: n}
}

// AddKernel appends a kernel; its qubit count must not exceed the
// program's.
func (p *Program) AddKernel(k *Kernel) *Program {
	if k.c.NumQubits > p.NumQubits {
		panic(fmt.Sprintf("openql: kernel %q uses %d qubits, program has %d",
			k.Name, k.c.NumQubits, p.NumQubits))
	}
	p.Kernels = append(p.Kernels, k)
	return p
}

// ProgramFromCircuit lifts a flat circuit into a single-kernel program —
// the entry point for cQASM text submitted to the service layer.
func ProgramFromCircuit(name string, c *circuit.Circuit) *Program {
	p := NewProgram(name, c.NumQubits)
	p.AddKernel(KernelFromCircuit(name, c))
	return p
}

// Flatten lowers the program to one circuit (kernels concatenated,
// iterations unrolled).
func (p *Program) Flatten() *circuit.Circuit {
	out := circuit.New(p.Name, p.NumQubits)
	for _, k := range p.Kernels {
		out.Append(k.Circuit())
	}
	return out
}

// CQASM renders the program as cQASM with one subcircuit per kernel,
// iteration counts preserved.
func (p *Program) CQASM() string {
	prog := &cqasm.Program{Version: "1.0", NumQubits: p.NumQubits}
	for _, k := range p.Kernels {
		sub := cqasm.Subcircuit{Name: sanitize(k.Name), Iterations: k.Iterations}
		for _, g := range k.c.Gates {
			sub.Bundles = append(sub.Bundles, cqasm.Bundle{Gates: []circuit.Gate{g.Clone()}})
		}
		prog.Subcircuits = append(prog.Subcircuits, sub)
	}
	return cqasm.Print(prog)
}

func sanitize(s string) string {
	out := []rune(s)
	for i, r := range out {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			out[i] = '_'
		}
	}
	if len(out) == 0 {
		return "kernel"
	}
	return string(out)
}

// CompileOptions configures the compiler pipeline.
type CompileOptions struct {
	Mode QubitMode
	// Target is the device to compile for; when set it takes precedence
	// over Platform (the compiler views it through compiler.PlatformFor).
	// The device's calibration table is what noise-aware passes read.
	Target   *target.Device
	Platform *compiler.Platform
	// Passes is the compiler configuration: a comma-separated pass spec
	// with per-pass options (e.g. "decompose,optimize,map(lookahead=8,
	// strategy=noise),lower-swaps,optimize-lowered,schedule(policy=alap),
	// assemble"); empty selects compiler.DefaultPassSpec. The spec must
	// include "schedule" (execution needs a timed circuit) and, on
	// realistic targets, "assemble" after it — checked before anything
	// compiles.
	Passes string
	// PrefixCache, when non-nil, caches per-kernel prefix artefacts
	// across compilations (level 1 of the two-level compile cache): a
	// recompile that only changes mapping, scheduling or calibration
	// configuration re-runs just the variant suffix. Cached artefacts
	// are keyed by (gate-set hash, prefix spec, kernel text) — see
	// compiler.PrefixKey — and never change compiled output.
	PrefixCache compiler.PrefixCache
}

// Compiled is the full output of the compiler: every intermediate
// artefact of Fig 4's flow. It is immutable once Compile returns — the
// compile caches share one Compiled across jobs and goroutines — and its
// circuit, schedule and eQASM share gate operand and parameter slices
// with each other, with cached prefix artefacts and with the source
// program's kernels. A consumer that needs a changed artefact copies
// what it changes, as BindArtefact does.
type Compiled struct {
	Mode      QubitMode
	Circuit   *circuit.Circuit    // final gate-level circuit (mapped if applicable)
	Schedule  *compiler.Schedule  // timed bundles
	EQASM     *eqasm.Program      // executable assembly (realistic targets)
	MapResult *compiler.MapResult // routing statistics, nil for all-to-all
	// Report records the executed pass pipeline with per-pass wall time,
	// gate count, depth and added SWAPs.
	Report *compiler.CompileReport
	// Binds, non-nil for parametric programs, maps symbolic parameters to
	// the artefact offsets they flow into; BindArtefact consumes it. A
	// nil table means the artefact is concrete and ready to execute.
	Binds *BindTable
}

// CQASM renders the final circuit as cQASM. Nothing on the execution
// path reads the text, so it is rendered only when asked for.
func (c *Compiled) CQASM() string { return cqasm.PrintCircuit(c.Circuit) }

// compilePrefix runs every kernel, in program order, through the
// pipeline's platform-generic prefix, consulting the prefix cache when
// one is configured, and folds the per-kernel accounts into the report.
// Prefix rows are aggregated over the kernels that actually ran the
// passes; cache hits contribute nothing (their artefact was fetched, not
// compiled) and are counted in report.PrefixHits instead.
func (p *Program) compilePrefix(prefix *compiler.Pipeline, opts *CompileOptions, report *compiler.CompileReport) ([]*compiler.PrefixArtefact, error) {
	arts := make([]*compiler.PrefixArtefact, len(p.Kernels))
	gateHash := ""
	if opts.PrefixCache != nil {
		gateHash = opts.Platform.GateSetHash()
	}
	report.PrefixSpec = prefix.Spec
	agg := make([]compiler.PassMetrics, 0, prefix.Len())
	for i, k := range p.Kernels {
		build := func() (*compiler.PrefixArtefact, error) {
			// Unroll straight into the program-width circuit. The gates
			// share their operand and parameter slices with the kernel's:
			// passes never mutate a gate they did not allocate.
			kc := &circuit.Circuit{Name: k.Name, NumQubits: p.NumQubits,
				Gates: make([]circuit.Gate, 0, k.Iterations*len(k.c.Gates))}
			for it := 0; it < k.Iterations; it++ {
				kc.Gates = append(kc.Gates, k.c.Gates...)
			}
			ctx := &compiler.PassContext{
				Platform:    opts.Platform,
				ProgramName: p.Name,
				Circuit:     kc,
			}
			rep, err := prefix.Run(ctx)
			if err != nil {
				return nil, err
			}
			return &compiler.PrefixArtefact{Circuit: ctx.Circuit, Passes: rep.Passes}, nil
		}
		var (
			hit bool
			err error
		)
		if opts.PrefixCache == nil {
			arts[i], err = build()
		} else {
			key := compiler.PrefixKey(gateHash, prefix.Spec, k.ContentHash(p.NumQubits))
			arts[i], hit, err = opts.PrefixCache.GetOrCompute(key, build)
		}
		if err != nil {
			return nil, err
		}
		kc := compiler.KernelCompile{Kernel: k.Name, PrefixCached: hit}
		if hit {
			report.PrefixHits++
		} else {
			kc.Passes = arts[i].Passes
			for j, m := range arts[i].Passes {
				kc.WallNs += m.WallNs
				if j == len(agg) {
					agg = append(agg, compiler.PassMetrics{Pass: m.Pass})
				}
				agg[j].WallNs += m.WallNs
				agg[j].GatesBefore += m.GatesBefore
				agg[j].GatesAfter += m.GatesAfter
				agg[j].DepthBefore += m.DepthBefore
				agg[j].DepthAfter += m.DepthAfter
			}
		}
		report.Kernels = append(report.Kernels, kc)
	}
	report.Passes = append(report.Passes, agg...)
	for _, m := range agg {
		report.TotalNs += m.WallNs
	}
	return arts, nil
}

// assembleEQASM is the Assembler this layer injects into the pass
// pipeline: the compiler's "assemble" pass delegates to it on realistic
// targets (eQASM assembly sits above the compiler in the import graph).
func assembleEQASM(ctx *compiler.PassContext) error {
	prog, err := eqasm.Assemble(ctx.Schedule, ctx.Platform)
	if err != nil {
		return err
	}
	prog.Name = ctx.ProgramName
	ctx.Assembled = prog
	return nil
}

// Compile lowers the program for the given target by running a compiler
// pass pipeline: by default (compiler.DefaultPassSpec) decompose to the
// platform's primitives, optimise, map to the topology, lower routing
// SWAPs, schedule, and (for realistic targets) assemble eQASM.
// Options.Passes selects a custom pipeline from the built-in passes
// instead.
//
// Compilation is two-level: the pipeline's platform-generic prefix
// (decompose, optimize, fold-rotations) runs per kernel, in program
// order, consulting Options.PrefixCache when one is supplied, and the
// per-kernel artefacts are concatenated before the variant suffix
// (mapping, scheduling, assembly) runs over the whole program. Kernel boundaries are therefore optimisation
// barriers: the peephole passes never merge gates across kernels, which
// both matches the kernels' role as separately-offloaded units of
// classical control and makes every kernel's prefix artefact reusable by
// any program embedding the same kernel.
func (p *Program) Compile(opts CompileOptions) (*Compiled, error) {
	if opts.Target != nil {
		opts.Platform = compiler.PlatformFor(opts.Target)
	}
	if opts.Platform == nil {
		opts.Platform = compiler.Perfect(p.NumQubits)
	}
	spec := opts.Passes
	if spec == "" {
		spec = compiler.DefaultPassSpec
	}
	pipeline, err := compiler.NewPipeline(spec)
	if err != nil {
		return nil, err
	}
	if err := pipeline.CheckStages(opts.Mode == RealisticQubits); err != nil {
		return nil, err
	}
	prefix, suffix := pipeline.Split()

	report := &compiler.CompileReport{PassSpec: pipeline.Spec}
	var full *circuit.Circuit
	if prefix.Len() == 0 || len(p.Kernels) == 0 {
		// No generic prefix (or nothing to split): one-shot compile of
		// the flattened program through the whole pipeline.
		full = p.Flatten()
		suffix = pipeline
	} else {
		arts, err := p.compilePrefix(prefix, &opts, report)
		if err != nil {
			return nil, err
		}
		// Concatenate the immutable prefix artefacts by value: the suffix
		// passes copy any gate they change.
		n := 0
		for _, a := range arts {
			n += len(a.Circuit.Gates)
		}
		full = &circuit.Circuit{Name: p.Name, NumQubits: p.NumQubits, Gates: make([]circuit.Gate, 0, n)}
		for _, a := range arts {
			full.Gates = append(full.Gates, a.Circuit.Gates...)
		}
	}
	ctx := &compiler.PassContext{
		Platform:    opts.Platform,
		Assemble:    opts.Mode == RealisticQubits,
		Assembler:   assembleEQASM,
		ProgramName: p.Name,
		Circuit:     full,
	}
	sufReport, err := suffix.Run(ctx)
	if err != nil {
		return nil, err
	}
	report.Passes = append(report.Passes, sufReport.Passes...)
	report.TotalNs += sufReport.TotalNs
	// CheckStages guaranteed the schedule and, on realistic targets, the
	// eQASM the assemble pass stores.
	eq, _ := ctx.Assembled.(*eqasm.Program)
	out := &Compiled{
		Mode:      opts.Mode,
		Circuit:   ctx.Circuit,
		Schedule:  ctx.Schedule,
		EQASM:     eq,
		MapResult: ctx.MapResult,
		Report:    report,
	}
	out.Binds = newBindTable(out)
	return out, nil
}
