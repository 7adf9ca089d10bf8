package qx

import (
	"repro/internal/circuit"
	"repro/internal/quantum"
)

// autoEngine is the dispatching meta-engine: per circuit it selects the
// stabilizer tableau when the circuit is Clifford and the noise model is
// Clifford-compatible, and the optimized dense engine otherwise. Both
// targets produce identical seeded counts wherever they overlap (the
// stabilizer engine mirrors the dense PRNG consumption draw for draw),
// so dispatch is a pure performance decision — it never changes
// results, only which asymptotic regime pays for them.
type autoEngine struct{}

// Name returns "auto".
func (autoEngine) Name() string { return EngineAuto }

// Dispatch implements Dispatcher: the concrete engine that will execute
// the circuit under the given noise model.
func (autoEngine) Dispatch(c *circuit.Circuit, noise *NoiseModel) Engine {
	if circuit.IsClifford(c) && noise.CliffordCompatible() {
		return stabilizerEngine{}
	}
	return optimizedEngine{}
}

// RunState executes once to a final state vector on the optimized dense
// engine: the result is a dense state whatever the circuit, and the
// tableau would only convert to one (and refuse past its qubit cap).
func (autoEngine) RunState(c *circuit.Circuit, env *ExecEnv) (*quantum.State, error) {
	return optimizedEngine{}.RunState(c, env)
}

// Run dispatches and executes the circuit for the given number of shots.
func (a autoEngine) Run(c *circuit.Circuit, shots int, env *ExecEnv) (*Result, error) {
	return a.Dispatch(c, env.Noise).Run(c, shots, env)
}
