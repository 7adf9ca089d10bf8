// Package core assembles the full-stack quantum accelerator of Fig 2 and
// Fig 3: application logic expressed in OpenQL, compiled through cQASM to
// either the QX simulator directly (perfect qubits, application
// development) or through eQASM and the micro-architecture to a noisy QX
// backend (realistic qubits, hardware bring-up). This is the paper's
// primary contribution — the two full-stack modes over one toolchain.
package core

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/compiler"
	"repro/internal/microarch"
	"repro/internal/openql"
	"repro/internal/qx"
	"repro/internal/target"
)

// Stack is one configured full-stack target.
//
// Every field either feeds CompileFingerprint, which keys the compile
// caches (the prefix cache's compiler.PrefixKey reads a subset of it:
// the platform's gate set and the pass spec's prefix), or carries an
// explicit `fp:"-"` tag recording that it affects execution only, never
// compiled artefacts. The fpfields qlint analyzer
// enforces this: adding a field without folding it into a fingerprint
// or tagging it is a lint error, so a compile-relevant field can never
// silently alias cache keys.
type Stack struct {
	Name      string
	Mode      openql.QubitMode
	Platform  *compiler.Platform
	Microcode *microarch.Config `fp:"-"` // drives eQASM execution, not compilation; nil for perfect-qubit stacks
	Noise     *qx.NoiseModel    `fp:"-"` // applied by the simulator at run time; nil for perfect qubits
	Seed      int64             `fp:"-"` // seeds execution PRNGs; compiled artefacts are seed-independent
	// Passes is the compiler configuration: a comma-separated pass spec
	// with per-pass options (see openql.CompileOptions.Passes); empty
	// selects compiler.DefaultPassSpec. Part of CompileFingerprint: two
	// stacks with different pass specs compile differently.
	Passes string
	// Engine pins the qx execution engine; nil runs qx.Auto. Differential
	// tests pin qx.Reference or qx.Optimized here; engines execute
	// compiled circuits and never change them.
	Engine qx.Engine `fp:"-"`
	// KernelWorkers caps the simulator's amplitude-kernel parallelism per
	// run (0 = machine-sized, 1 = serial). Services executing many jobs
	// concurrently set this so per-job kernel goroutines do not multiply
	// with their worker pools.
	KernelWorkers int `fp:"-"`
	// PrefixCache, when non-nil, caches platform-generic prefix
	// artefacts across compiles (level 1 of the two-level compile
	// cache), keyed by compiler.PrefixKey. Cached artefacts never
	// change compiled output, so this too stays out of the fingerprints.
	PrefixCache compiler.PrefixCache `fp:"-"`
}

// ParallelShots is the shot count at or above which RunCompiled fans
// shot execution out across CPU cores in parallel batches. Parallel runs
// stay deterministic per (seed, core count) but draw different PRNG
// streams than serial runs; the threshold sits above the shot counts the
// test and example corpus pins exact counts for.
const ParallelShots = 4096

// NewStackForDevice builds the full-stack target for one device
// description: the compiler platform is a view of the device, and — when
// the device carries a calibration table — the stack runs in realistic
// mode with a noise model derived from that table (NoiseFromDevice) and
// a microcode configuration matched to the device's technology.
// Uncalibrated devices execute as perfect-qubit stacks (their topology
// and gate set still constrain compilation). This is how the preset
// stacks are built, how per-job target overrides materialise in qserv,
// and how -target device files become stacks in the CLIs.
func NewStackForDevice(dev *target.Device, seed int64) (*Stack, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	s := &Stack{
		Name:     dev.Name,
		Mode:     openql.PerfectQubits,
		Platform: compiler.PlatformFor(dev),
		Seed:     seed,
	}
	if dev.Calibration == nil {
		return s, nil
	}
	s.Mode = openql.RealisticQubits
	s.Noise = NoiseFromDevice(dev)
	s.Microcode = microcodeFor(dev)
	return s, nil
}

// WithDevice rebuilds the stack for a different device description —
// the device decides mode, platform, noise model and microcode — while
// carrying over every compiler and execution tuning knob (pass spec,
// engine, kernel parallelism and the prefix cache), and, for the same
// gate set, the decomposition's lowering table. This is how per-job
// target and calibration overrides materialise in qserv, and how a running
// service re-calibrates a backend in place: the rebuilt stack's device
// hash keys fresh full-artefact cache entries while its prefix entries
// (keyed on the gate set alone) stay live.
func (s *Stack) WithDevice(dev *target.Device) (*Stack, error) {
	out, err := NewStackForDevice(dev, s.Seed)
	if err != nil {
		return nil, err
	}
	out.Passes = s.Passes
	out.Engine = s.Engine
	out.KernelWorkers = s.KernelWorkers
	out.PrefixCache = s.PrefixCache
	out.Platform.ShareLowerings(s.Platform)
	return out, nil
}

// mustStackForDevice builds a stack for a device known to be valid (the
// presets).
func mustStackForDevice(dev *target.Device, seed int64) *Stack {
	s, err := NewStackForDevice(dev, seed)
	if err != nil {
		panic(fmt.Sprintf("core: preset device invalid: %v", err))
	}
	return s
}

// microcodeFor selects the micro-architecture configuration for a
// device: the technology preset matching its name where one exists, and
// the transmon microcode table otherwise (custom devices share its
// opcode set), retimed to the device's cycle time.
func microcodeFor(dev *target.Device) *microarch.Config {
	var cfg *microarch.Config
	if dev.Name == "semiconducting" {
		cfg = microarch.SemiconductingConfig()
	} else {
		cfg = microarch.SuperconductingConfig()
	}
	cfg.Name = dev.Name
	if dev.CycleTimeNs > 0 {
		cfg.CycleTimeNs = dev.CycleTimeNs
	}
	return cfg
}

// NoiseFromDevice derives the execution-layer noise model from a
// device's calibration table: per-channel values are taken exactly when
// the table is homogeneous and averaged otherwise (the trajectory
// simulator models one global channel per error class). Returns nil for
// uncalibrated devices.
func NoiseFromDevice(dev *target.Device) *qx.NoiseModel {
	cal := dev.Calibration
	if cal == nil || len(cal.Qubits) == 0 {
		return nil
	}
	pick := func(get func(target.QubitCalibration) float64) float64 {
		first := get(cal.Qubits[0])
		uniform := true
		sum := 0.0
		for _, qc := range cal.Qubits {
			v := get(qc)
			sum += v
			if v != first {
				uniform = false
			}
		}
		if uniform {
			return first
		}
		return sum / float64(len(cal.Qubits))
	}
	twoQ := 0.0
	if len(cal.Edges) > 0 {
		first := cal.Edges[0].TwoQubitError
		uniform := true
		sum := 0.0
		for _, e := range cal.Edges {
			sum += e.TwoQubitError
			if e.TwoQubitError != first {
				uniform = false
			}
		}
		twoQ = first
		if !uniform {
			twoQ = sum / float64(len(cal.Edges))
		}
	}
	return &qx.NoiseModel{
		DepolarizingProb:         pick(func(q target.QubitCalibration) float64 { return q.SingleQubitError }),
		TwoQubitDepolarizingProb: twoQ,
		T1:                       pick(func(q target.QubitCalibration) float64 { return q.T1Ns }),
		T2:                       pick(func(q target.QubitCalibration) float64 { return q.T2Ns }),
		GateTimeNs:               float64(dev.CycleTimeNs),
		ReadoutError:             pick(func(q target.QubitCalibration) float64 { return q.ReadoutError }),
	}
}

// NewPerfect returns the application-development stack of Fig 2(b):
// perfect qubits, all-to-all connectivity, direct QX execution.
func NewPerfect(n int, seed int64) *Stack {
	return mustStackForDevice(target.Perfect(n), seed)
}

// NewSuperconducting returns the experimental stack of Fig 2(a)/Fig 6:
// Surface-17 transmon device, eQASM, micro-architecture, with the noise
// model derived from the device's calibration table.
func NewSuperconducting(seed int64) *Stack {
	return mustStackForDevice(target.Superconducting(), seed)
}

// NewSemiconducting returns the spin-qubit retarget of the same
// micro-architecture (§3.1): only the device description and microcode
// configuration change.
func NewSemiconducting(seed int64) *Stack {
	return mustStackForDevice(target.Semiconducting(), seed)
}

// Report is the result of a full-stack execution: every artefact from
// source to measurement statistics.
type Report struct {
	Stack    string
	Mode     openql.QubitMode
	Result   *qx.Result
	Trace    *microarch.Trace    // nil for perfect stacks
	Schedule *compiler.Schedule  // timed program
	Mapping  *compiler.MapResult // nil without topology
	// Compile is the per-pass account of the compile pipeline that
	// produced the executed circuit (shared with the cached artefact;
	// treat as immutable).
	Compile *compiler.CompileReport
	// WallNs is the modelled execution time of one shot in nanoseconds.
	WallNs int
	// Engine is the qx engine that actually executed the shots. On a
	// stack with no pinned engine (auto) this is the dispatch target
	// ("stabilizer" or "optimized"), resolved per compiled circuit — the
	// value the qserv layer records on spans and the engine-dispatch
	// counter.
	Engine string
	// ExecNs is the measured wall time of the execution phase (engine
	// shots, or eQASM through the micro-architecture on realistic
	// stacks) — the run half of the compile/run split. The compile half
	// is Compile.TotalNs.
	ExecNs int64
}

// Execute compiles and runs an OpenQL program on the stack.
func (s *Stack) Execute(p *openql.Program, shots int) (*Report, error) {
	compiled, err := s.Compile(p)
	if err != nil {
		return nil, err
	}
	return s.RunCompiled(compiled, p.NumQubits, shots, s.Seed)
}

// Compile lowers a program through the stack's compiler configuration and
// returns every intermediate artefact, without executing anything. The
// result is immutable by convention and may be cached and re-executed any
// number of times via RunCompiled — this is the cache-friendly entry point
// the qserv service builds its compiled-circuit cache on.
func (s *Stack) Compile(p *openql.Program) (*openql.Compiled, error) {
	if p.NumQubits > s.Platform.NumQubits {
		return nil, fmt.Errorf("core: program needs %d qubits, stack %q has %d",
			p.NumQubits, s.Name, s.Platform.NumQubits)
	}
	return p.Compile(openql.CompileOptions{
		Mode:        s.Mode,
		Platform:    s.Platform,
		Passes:      s.Passes,
		PrefixCache: s.PrefixCache,
	})
}

// RunCompiled executes an already-compiled program for the given number of
// shots, seeding a fresh simulator (and, on realistic stacks, a fresh
// micro-architecture machine) per call; the simulator reseeds a recycled
// PRNG and releases it when the run ends (qx.Simulator.Release).
// logicalQubits is the qubit count of the source program, needed to
// translate outcomes back to logical order. It is safe for concurrent
// use: the Stack is only read, and all mutable execution state is owned
// by the call.
func (s *Stack) RunCompiled(compiled *openql.Compiled, logicalQubits, shots int, seed int64) (*Report, error) {
	if compiled.IsParametric() {
		return nil, fmt.Errorf("core: program has unbound parameters %v; bind the artefact (BindArtefact) before execution", compiled.Symbols())
	}
	engine := s.Engine
	if engine == nil {
		engine = qx.Auto()
	}
	// Resolve meta-engines (auto) to the engine that will actually run
	// this circuit, so the report names the real execution path and the
	// dispatch decision is made once, not per shot batch.
	var noise *qx.NoiseModel
	if s.Mode != openql.PerfectQubits {
		noise = s.Noise
	}
	if d, ok := engine.(qx.Dispatcher); ok {
		engine = d.Dispatch(compiled.Circuit, noise)
	}
	report := &Report{
		Stack:    s.Name,
		Mode:     s.Mode,
		Schedule: compiled.Schedule,
		Mapping:  compiled.MapResult,
		Compile:  compiled.Report,
		WallNs:   compiled.Schedule.Makespan * s.Platform.CycleTimeNs,
		Engine:   engine.Name(),
	}
	parallel := shots >= ParallelShots
	if s.Mode == openql.PerfectQubits {
		sim := qx.NewWithEngine(seed, engine)
		defer sim.Release()
		sim.KernelWorkers = s.KernelWorkers
		var (
			res *qx.Result
			err error
		)
		if parallel {
			res, err = sim.RunParallel(compiled.Circuit, shots, 0)
		} else {
			res, err = sim.Run(compiled.Circuit, shots)
		}
		if err != nil {
			return nil, err
		}
		report.ExecNs = res.ElapsedNs
		report.Result = toLogical(res, logicalQubits, compiled.MapResult)
		return report, nil
	}
	// Realistic path: eQASM through the micro-architecture onto noisy QX.
	backend := qx.NewNoisyWithEngine(seed, s.Noise, engine)
	defer backend.Release()
	backend.KernelWorkers = s.KernelWorkers
	machine := microarch.New(s.Microcode, backend)
	if parallel {
		machine.ShotWorkers = runtime.GOMAXPROCS(0)
	}
	execStart := time.Now()
	run, err := machine.Execute(compiled.EQASM, shots)
	if err != nil {
		return nil, err
	}
	report.ExecNs = time.Since(execStart).Nanoseconds()
	report.Result = toLogical(run.Result, logicalQubits, compiled.MapResult)
	report.Trace = run.Trace
	if run.Trace != nil {
		report.WallNs = run.Trace.TotalNs
	}
	return report, nil
}

// CompileFingerprint identifies only the compiler-relevant configuration.
// Two stacks with equal compile fingerprints produce identical Compile
// output for the same program — engines execute compiled circuits, they
// never change them — so this is the stack half of a compiled-circuit
// cache key (seed, noise and engine are deliberately excluded: they
// affect execution, not compilation, and keying the cache on them would
// recompile identical programs). It keys on the name, mode, platform,
// device content hash and pass spec — the spec being the compiler's one
// configuration. The spec is canonicalised: an empty Passes resolves to
// compiler.DefaultPassSpec, and a non-empty one to the canonical
// rendering (compiler.Pipeline.Canonical, the form Split renders its
// halves in), so equivalent spellings — whitespace, option order — and
// the literal default spec share cache entries with their canonical
// form. The device content hash (topology, gate set, timings AND
// calibration — see target.Device.Hash) is folded in, so re-calibrating
// a device changes the compile fingerprint and invalidates cached
// compiles built against the stale calibration.
//
// CompileFingerprint keys the FULL-artefact level of the two-level
// compile cache; compiler.PrefixKey keys the platform-generic prefix
// level, which deliberately depends on much less — so a fingerprint
// rotation that leaves the prefix key unchanged (recalibration, a
// different suffix pass spec or suffix options) recompiles suffix-only
// against the cached prefix artefacts.
func (s *Stack) CompileFingerprint() string {
	passes := compiler.DefaultPassSpec
	if s.Passes != "" {
		// Only an explicit spec is parsed: the default path does no
		// per-job parsing.
		passes = s.Passes
		if pl, err := compiler.NewPipeline(s.Passes); err == nil {
			passes = pl.Canonical()
		}
	}
	return fmt.Sprintf("%s|%s|%s|q%d|dev=%s|passes=%s",
		s.Name, s.Mode, s.Platform.Name, s.Platform.NumQubits,
		s.Platform.ContentHash(), passes)
}

// toLogical translates outcome bitmasks from physical qubit positions
// back to the program's logical qubit order, using the mapper's
// measure-time bindings. Without a mapping the result passes through.
func toLogical(res *qx.Result, logicalQubits int, mr *compiler.MapResult) *qx.Result {
	if res == nil || mr == nil {
		return res
	}
	out := &qx.Result{
		NumQubits:          logicalQubits,
		Shots:              res.Shots,
		Counts:             map[int]int{},
		GateErrorsInjected: res.GateErrorsInjected,
	}
	//qlint:nondeterministic-ok order-independent: commutative += accumulation into a fresh map; rendering sorts
	for idx, count := range res.Counts {
		logical := 0
		for l := 0; l < logicalQubits; l++ {
			p, ok := mr.MeasurePhys[l]
			if !ok {
				continue
			}
			if idx&(1<<uint(p)) != 0 {
				logical |= 1 << uint(l)
			}
		}
		out.Counts[logical] += count
	}
	// Wide registers (more than 63 qubits, stabilizer-engine territory)
	// carry bitstring-keyed counts; remap character-wise — qubit q is
	// the (len-1-q)-th character. A wide physical register can still map
	// to a narrow logical one, in which case the remap lands back in
	// Counts.
	//qlint:nondeterministic-ok order-independent: commutative += accumulation into fresh maps; rendering sorts
	for bits, count := range res.WideCounts {
		logical := make([]byte, logicalQubits)
		for l := 0; l < logicalQubits; l++ {
			logical[logicalQubits-1-l] = '0'
			p, ok := mr.MeasurePhys[l]
			if !ok || p >= len(bits) {
				continue
			}
			logical[logicalQubits-1-l] = bits[len(bits)-1-p]
		}
		if logicalQubits > 63 {
			if out.WideCounts == nil {
				out.WideCounts = map[string]int{}
			}
			out.WideCounts[string(logical)] += count
			continue
		}
		idx := 0
		for _, ch := range logical {
			idx <<= 1
			if ch == '1' {
				idx |= 1
			}
		}
		out.Counts[idx] += count
	}
	return out
}
