package compiler

// Built-in passes: the classic decompose/optimize/map/schedule stages of
// the hard-wired compiler, each a table entry so pipelines can reorder,
// repeat or omit them per compilation.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// builtins is the fixed, read-only table of passes a spec can name, in
// the order of the default pipeline. decompose, optimize and
// fold-rotations are platform-generic: their output depends only on the
// circuit and the native gate set, so a leading run of them forms the
// cacheable prefix of a pipeline (see Pipeline.Split). Everything from
// mapping onward is variant-specific — topology, calibration, scheduling
// policy, per-pass options.
var builtins = []*builtin{
	{name: "decompose", run: runDecompose, generic: true},
	{name: "optimize", run: runOptimize, generic: true},
	{name: "map", run: runMap, check: checkMapOptions},
	{name: "lower-swaps", run: runLowerSwaps},
	{name: "optimize-lowered", run: runOptimizeLowered},
	{name: "fold-rotations", run: runFoldRotations, generic: true},
	{name: "schedule", run: runSchedule, check: checkScheduleOptions},
	{name: "assemble", run: runAssemble},
}

// runDecompose rewrites every gate the platform does not support natively
// into supported primitives.
func runDecompose(ctx *PassContext) error {
	c, err := Decompose(ctx.Circuit, ctx.Platform)
	if err != nil {
		return err
	}
	ctx.Circuit = c
	return nil
}

// runOptimize applies the peephole trio (pair cancellation, rotation
// merging, identity removal) to a fixpoint.
func runOptimize(ctx *PassContext) error {
	ctx.Circuit = Optimize(ctx.Circuit)
	return nil
}

// runFoldRotations applies the commutation-aware z-rotation folding pass.
func runFoldRotations(ctx *PassContext) error {
	ctx.Circuit = FoldRotations(ctx.Circuit)
	return nil
}

// checkOptionKeys rejects any option key outside avail, checking keys
// in sorted order so the reported unknown option is deterministic when a
// spec carries several.
func checkOptionKeys(o PassOptions, avail ...string) error {
	keys := make([]string, 0, len(o))
	for key := range o {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !slices.Contains(avail, key) {
			return fmt.Errorf("unknown option %q (available: %s)", key, strings.Join(avail, ", "))
		}
	}
	return nil
}

// mapOptionsFrom resolves a map pass's spec options to MapOptions and the
// routing strategy: placement=trivial|greedy, lookahead=<bool|window>,
// window=<int>, strategy=hop|noise.
func mapOptionsFrom(o PassOptions) (MapOptions, string, error) {
	var opts MapOptions
	if err := checkOptionKeys(o, "placement", "lookahead", "window", "strategy"); err != nil {
		return opts, "", err
	}
	switch v := o.String("placement", ""); v {
	case "":
	case "trivial":
		opts.Placement = TrivialPlacement
	case "greedy":
		opts.Placement = GreedyPlacement
	default:
		return opts, "", fmt.Errorf("option placement=%q is not trivial or greedy", v)
	}
	if v, ok := o["lookahead"]; ok {
		// lookahead=8 enables lookahead routing with that window;
		// lookahead=true/false toggles it with the default window.
		if n, err := o.Int("lookahead", 0); err == nil {
			if n <= 0 {
				return opts, "", fmt.Errorf("option lookahead=%q must be a positive window", v)
			}
			opts.Lookahead = true
			opts.LookaheadWindow = n
		} else if b, berr := o.Bool("lookahead", false); berr == nil {
			opts.Lookahead = b
		} else {
			return opts, "", fmt.Errorf("option lookahead=%q is neither a window size nor a boolean", v)
		}
	}
	if n, err := o.Int("window", 0); err != nil {
		return opts, "", err
	} else if n != 0 {
		if n < 0 {
			return opts, "", fmt.Errorf("option window=%d must be positive", n)
		}
		if !opts.Lookahead {
			return opts, "", fmt.Errorf("option window=%d has no effect without lookahead", n)
		}
		opts.LookaheadWindow = n
	}
	strategy := o.String("strategy", "hop")
	if strategy != "hop" && strategy != "noise" {
		return opts, "", fmt.Errorf("option strategy=%q is not hop or noise", strategy)
	}
	return opts, strategy, nil
}

// checkMapOptions validates a map pass's options at spec-parse time.
func checkMapOptions(o PassOptions) error {
	_, _, err := mapOptionsFrom(o)
	return err
}

// runMap places logical qubits onto the platform topology and routes
// two-qubit gates with SWAP chains; with strategy=noise it weighs
// routing by the device calibration. All-to-all targets skip the pass
// entirely (MapResult stays nil), preserving the classic compiler's
// behaviour of mapping only constrained topologies.
func runMap(ctx *PassContext) error {
	if ctx.Platform.Topology == nil {
		return nil
	}
	opts, strategy, err := mapOptionsFrom(ctx.Options)
	if err != nil {
		return err
	}
	mapper := MapCircuit
	if strategy == "noise" {
		mapper = MapCircuitNoise
	}
	mr, err := mapper(ctx.Circuit, ctx.Platform, opts)
	if err != nil {
		return err
	}
	ctx.MapResult = mr
	ctx.Circuit = mr.Circuit
	return nil
}

// runLowerSwaps decomposes the SWAPs inserted by routing into platform
// primitives. The decomposition acts on the same adjacent pair, so the
// nearest-neighbour constraint is preserved. A no-op before mapping or on
// platforms with a native swap.
func runLowerSwaps(ctx *PassContext) error {
	if ctx.MapResult == nil || ctx.Platform.Supports("swap") {
		return nil
	}
	c, err := Decompose(ctx.Circuit, ctx.Platform)
	if err != nil {
		return err
	}
	ctx.Circuit = c
	ctx.SwapsLowered = true
	return nil
}

// runOptimizeLowered re-runs the peephole optimiser, but only when a
// preceding lower-swaps pass actually lowered routing SWAPs — the classic
// compiler re-optimised exactly the lowered SWAP chains, and on targets
// with a native swap (or no topology) it left the routed circuit alone.
func runOptimizeLowered(ctx *PassContext) error {
	if !ctx.SwapsLowered {
		return nil
	}
	ctx.Circuit = Optimize(ctx.Circuit)
	return nil
}

// schedulePolicyFrom resolves a schedule pass's spec options to the
// scheduling policy: policy=asap|alap, ASAP by default.
func schedulePolicyFrom(o PassOptions) (Policy, error) {
	if err := checkOptionKeys(o, "policy"); err != nil {
		return ASAP, err
	}
	switch v := o.String("policy", "asap"); v {
	case "asap":
		return ASAP, nil
	case "alap":
		return ALAP, nil
	default:
		return ASAP, fmt.Errorf("option policy=%q is not asap or alap", v)
	}
}

// checkScheduleOptions validates a schedule pass's options at spec-parse
// time.
func checkScheduleOptions(o PassOptions) error {
	_, err := schedulePolicyFrom(o)
	return err
}

// runSchedule assigns start cycles under the platform's gate durations
// and control-channel limits, with the policy the spec selects.
func runSchedule(ctx *PassContext) error {
	policy, err := schedulePolicyFrom(ctx.Options)
	if err != nil {
		return err
	}
	sched, err := ScheduleCircuit(ctx.Circuit, ctx.Platform, policy)
	if err != nil {
		return err
	}
	ctx.Schedule = sched
	return nil
}

// runAssemble lowers the scheduled circuit to the target's executable
// form through the injected Assembler (eQASM for realistic stacks). A
// no-op on perfect targets, which execute cQASM directly, so one
// pipeline spec serves both qubit modes.
func runAssemble(ctx *PassContext) error {
	if !ctx.Assemble {
		return nil
	}
	if ctx.Assembler == nil {
		return fmt.Errorf("no assembler injected for an assembly-enabled target")
	}
	if ctx.Schedule == nil {
		return fmt.Errorf("assemble requires a schedule; put the \"schedule\" pass first")
	}
	return ctx.Assembler(ctx)
}
