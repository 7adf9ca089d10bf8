package qserv

import (
	"runtime"

	"repro/internal/anneal"
	"repro/internal/core"
)

// DefaultService wires the paper's Fig 1 heterogeneous system behind the
// service: perfect, superconducting and semiconducting gate stacks, the
// simulated quantum annealer, and the classical QUBO fallback. qubits
// sizes the perfect stack; workers sizes every pool (<= 0 selects
// Config.DefaultWorkers). Every gate stack executes on the engine qx.Dispatch picks,
// compiles through Config.Passes (jobs may override it per request) and
// fans large shot counts out in parallel batches. The service is
// returned unstarted.
func DefaultService(cfg Config, qubits int, workers int) *Service {
	s := New(cfg)
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	poolWorkers := workers
	if poolWorkers <= 0 {
		poolWorkers = cfg.DefaultWorkers
	}
	// Budget per-job amplitude-kernel goroutines against the pool size so
	// concurrent jobs do not multiply into CPU oversubscription.
	kernelWorkers := max(1, runtime.GOMAXPROCS(0)/poolWorkers)
	for _, stack := range []*core.Stack{
		core.NewPerfect(qubits, seed),
		core.NewSuperconducting(seed),
		core.NewSemiconducting(seed),
	} {
		stack.Passes = cfg.Passes
		stack.KernelWorkers = kernelWorkers
		s.AddBackend(NewStackBackend(stack), workers)
	}
	s.AddBackend(NewAnnealBackend("annealer", anneal.SQAOptions{}), workers)
	s.AddBackend(NewClassicalFallback("classical", 20), workers)
	return s
}
