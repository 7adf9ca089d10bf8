// Package accel models the heterogeneous system architecture of Fig 1 and
// Fig 3: a classical host processor that "keeps control over the total
// system and delegates the execution of certain parts to the available
// accelerators" — quantum gate-based, quantum annealing-based, and
// classical (FPGA/GPU-style) co-processors behind one offload interface,
// with Amdahl-style accounting of where the time went.
package accel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/openql"
	"repro/internal/qubo"
)

// Task is a unit of work the host can offload.
type Task interface {
	Kind() string
}

// CircuitTask asks a gate-based quantum accelerator to run an OpenQL
// program.
type CircuitTask struct {
	Program *openql.Program
	Shots   int
}

// Kind identifies the task class.
func (CircuitTask) Kind() string { return "quantum-circuit" }

// AnnealTask asks an annealing accelerator to minimise a QUBO.
type AnnealTask struct {
	Q *qubo.QUBO
}

// Kind identifies the task class.
func (AnnealTask) Kind() string { return "quantum-anneal" }

// ClassicalTask wraps arbitrary host-side computation (the FPGA/GPU/NPU
// stand-in).
type ClassicalTask struct {
	Name string
	F    func() (interface{}, error)
}

// Kind identifies the task class.
func (ClassicalTask) Kind() string { return "classical" }

// Accelerator is a co-processor that accepts certain task kinds.
type Accelerator interface {
	Name() string
	Accepts(t Task) bool
	Execute(t Task) (interface{}, error)
}

// GateAccelerator wraps a full core.Stack as the gate-based quantum
// co-processor.
type GateAccelerator struct {
	Stack *core.Stack
}

// Name returns the accelerator identifier.
func (g *GateAccelerator) Name() string { return "quantum-gates(" + g.Stack.Name + ")" }

// Accepts reports whether the task is a circuit task.
func (g *GateAccelerator) Accepts(t Task) bool {
	_, ok := t.(CircuitTask)
	return ok
}

// Execute runs the program through the full stack.
func (g *GateAccelerator) Execute(t Task) (interface{}, error) {
	ct, ok := t.(CircuitTask)
	if !ok {
		return nil, fmt.Errorf("accel: %s cannot run %s", g.Name(), t.Kind())
	}
	return g.Stack.Execute(ct.Program, ct.Shots)
}

// AnnealAccelerator wraps the simulated quantum annealer (or, with
// Digital=true, the fully-connected digital annealer).
type AnnealAccelerator struct {
	Digital bool
	SQA     anneal.SQAOptions
	DA      anneal.DigitalAnnealerOptions
}

// Name returns the accelerator identifier.
func (a *AnnealAccelerator) Name() string {
	if a.Digital {
		return "digital-annealer"
	}
	return "quantum-annealer"
}

// Accepts reports whether the task is an anneal task.
func (a *AnnealAccelerator) Accepts(t Task) bool {
	_, ok := t.(AnnealTask)
	return ok
}

// Execute minimises the QUBO.
func (a *AnnealAccelerator) Execute(t Task) (interface{}, error) {
	at, ok := t.(AnnealTask)
	if !ok {
		return nil, fmt.Errorf("accel: %s cannot run %s", a.Name(), t.Kind())
	}
	if a.Digital {
		return anneal.DigitalAnneal(at.Q, a.DA), nil
	}
	return anneal.SolveQUBOQuantum(at.Q, a.SQA), nil
}

// ClassicalAccelerator executes classical tasks (the other co-processors
// of Fig 1).
type ClassicalAccelerator struct{ Label string }

// Name returns the accelerator identifier.
func (c *ClassicalAccelerator) Name() string { return c.Label }

// Accepts reports whether the task is classical.
func (c *ClassicalAccelerator) Accepts(t Task) bool {
	_, ok := t.(ClassicalTask)
	return ok
}

// Execute runs the wrapped function.
func (c *ClassicalAccelerator) Execute(t Task) (interface{}, error) {
	ct, ok := t.(ClassicalTask)
	if !ok {
		return nil, fmt.Errorf("accel: %s cannot run %s", c.Name(), t.Kind())
	}
	return ct.F()
}

// Dispatch records one offload for the host's Amdahl accounting.
type Dispatch struct {
	TaskKind    string
	Accelerator string
	Elapsed     time.Duration
	Err         error
}

// Host is the classical control processor of Fig 1: it owns the
// accelerator registry and delegates kernels. Offload and Dispatches are
// safe for concurrent use, so worker pools (internal/qserv) can share one
// host; Register is not — wire the system up before serving traffic.
type Host struct {
	accelerators []Accelerator

	mu  sync.Mutex
	log []Dispatch
}

// NewHost returns an empty host.
func NewHost() *Host { return &Host{} }

// Register adds an accelerator to the system.
func (h *Host) Register(a Accelerator) { h.accelerators = append(h.accelerators, a) }

// Accelerators lists registered accelerator names.
func (h *Host) Accelerators() []string {
	out := make([]string, len(h.accelerators))
	for i, a := range h.accelerators {
		out[i] = a.Name()
	}
	return out
}

// Dispatches returns a snapshot of the offload log for Amdahl accounting.
func (h *Host) Dispatches() []Dispatch {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Dispatch, len(h.log))
	copy(out, h.log)
	return out
}

// Offload delegates a task to the first accelerator that accepts it.
func (h *Host) Offload(t Task) (interface{}, error) {
	for _, a := range h.accelerators {
		if !a.Accepts(t) {
			continue
		}
		start := time.Now()
		out, err := a.Execute(t)
		h.mu.Lock()
		h.log = append(h.log, Dispatch{
			TaskKind:    t.Kind(),
			Accelerator: a.Name(),
			Elapsed:     time.Since(start),
			Err:         err,
		})
		h.mu.Unlock()
		return out, err
	}
	return nil, fmt.Errorf("accel: no accelerator accepts task kind %q", t.Kind())
}

// DefaultSystem wires the Fig 1 system: a host with a perfect-qubit gate
// accelerator, a quantum annealer, a digital annealer and a classical
// FPGA stand-in.
func DefaultSystem(qubits int, seed int64) *Host {
	h := NewHost()
	h.Register(&GateAccelerator{Stack: core.NewPerfect(qubits, seed)})
	h.Register(&AnnealAccelerator{SQA: anneal.SQAOptions{Seed: seed}})
	h.Register(&AnnealAccelerator{Digital: true, DA: anneal.DigitalAnnealerOptions{Seed: seed}})
	h.Register(&ClassicalAccelerator{Label: "fpga"})
	return h
}

// Compile-time interface checks.
var (
	_ Accelerator = (*GateAccelerator)(nil)
	_ Accelerator = (*AnnealAccelerator)(nil)
	_ Accelerator = (*ClassicalAccelerator)(nil)
)
