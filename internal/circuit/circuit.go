package circuit

import (
	"fmt"
	"strings"
)

// Circuit is an ordered list of gates over a fixed qubit register. It is
// the unit of compilation: the OpenQL layer produces kernels that lower to
// circuits, the compiler rewrites them, and QX executes them.
type Circuit struct {
	Name      string
	NumQubits int
	Gates     []Gate
}

// New returns an empty circuit over n qubits.
func New(name string, n int) *Circuit {
	if n < 0 {
		panic("circuit: negative qubit count")
	}
	return &Circuit{Name: name, NumQubits: n}
}

// Add validates and appends a gate. It returns the circuit for chaining.
func (c *Circuit) Add(name string, qubits []int, params ...float64) *Circuit {
	return c.AddGate(Gate{Name: strings.ToLower(name), Qubits: qubits, Params: params})
}

// AddGate validates (as Circuit.Validate) and appends a gate; it panics
// on an invalid one, a programming error in circuit construction.
func (c *Circuit) AddGate(g Gate) *Circuit {
	if err := c.check(g); err != nil {
		panic(err)
	}
	c.Gates = append(c.Gates, g)
	return c
}

// Convenience builders for the common gate set.

// I appends an identity gate on q.
func (c *Circuit) I(q int) *Circuit { return c.Add("i", []int{q}) }

// X appends a Pauli-X on q.
func (c *Circuit) X(q int) *Circuit { return c.Add("x", []int{q}) }

// Y appends a Pauli-Y on q.
func (c *Circuit) Y(q int) *Circuit { return c.Add("y", []int{q}) }

// Z appends a Pauli-Z on q.
func (c *Circuit) Z(q int) *Circuit { return c.Add("z", []int{q}) }

// H appends a Hadamard on q.
func (c *Circuit) H(q int) *Circuit { return c.Add("h", []int{q}) }

// S appends the phase gate on q.
func (c *Circuit) S(q int) *Circuit { return c.Add("s", []int{q}) }

// Sdag appends the inverse phase gate on q.
func (c *Circuit) Sdag(q int) *Circuit { return c.Add("sdag", []int{q}) }

// T appends the T gate on q.
func (c *Circuit) T(q int) *Circuit { return c.Add("t", []int{q}) }

// Tdag appends the inverse T gate on q.
func (c *Circuit) Tdag(q int) *Circuit { return c.Add("tdag", []int{q}) }

// RX appends an X rotation on q.
func (c *Circuit) RX(q int, theta float64) *Circuit { return c.Add("rx", []int{q}, theta) }

// RY appends a Y rotation on q.
func (c *Circuit) RY(q int, theta float64) *Circuit { return c.Add("ry", []int{q}, theta) }

// RZ appends a Z rotation on q.
func (c *Circuit) RZ(q int, theta float64) *Circuit { return c.Add("rz", []int{q}, theta) }

// CNOT appends a controlled-NOT with the given control and target.
func (c *Circuit) CNOT(control, target int) *Circuit {
	return c.Add("cnot", []int{control, target})
}

// CZ appends a controlled-Z on the pair.
func (c *Circuit) CZ(a, b int) *Circuit { return c.Add("cz", []int{a, b}) }

// SWAP appends a swap of the pair.
func (c *Circuit) SWAP(a, b int) *Circuit { return c.Add("swap", []int{a, b}) }

// CPhase appends a controlled phase with angle theta.
func (c *Circuit) CPhase(a, b int, theta float64) *Circuit {
	return c.Add("cphase", []int{a, b}, theta)
}

// Toffoli appends a doubly-controlled NOT.
func (c *Circuit) Toffoli(c1, c2, target int) *Circuit {
	return c.Add("toffoli", []int{c1, c2, target})
}

// Measure appends a Z measurement of q.
func (c *Circuit) Measure(q int) *Circuit {
	return c.AddGate(Gate{Name: OpMeasure, Qubits: []int{q}})
}

// MeasureAll appends a measurement of every qubit.
func (c *Circuit) MeasureAll() *Circuit {
	return c.AddGate(Gate{Name: OpMeasureAll})
}

// PrepZ appends a reset of q to |0>.
func (c *Circuit) PrepZ(q int) *Circuit {
	return c.AddGate(Gate{Name: OpPrepZ, Qubits: []int{q}})
}

// Barrier appends a scheduling barrier across all qubits.
func (c *Circuit) Barrier() *Circuit {
	return c.AddGate(Gate{Name: OpBarrier})
}

// Append concatenates another valid circuit's gates (the other circuit
// must not use more qubits, so its gates stay inside this register).
func (c *Circuit) Append(other *Circuit) *Circuit {
	if other.NumQubits > c.NumQubits {
		panic("circuit: appended circuit uses more qubits")
	}
	for _, g := range other.Gates {
		c.Gates = append(c.Gates, g.Clone())
	}
	return c
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := New(c.Name, c.NumQubits)
	out.Gates = make([]Gate, 0, len(c.Gates))
	for _, g := range c.Gates {
		out.Gates = append(out.Gates, g.Clone())
	}
	return out
}

// Inverse returns the adjoint circuit (gates reversed and inverted).
// Non-unitary operations cause an error.
func (c *Circuit) Inverse() (*Circuit, error) {
	out := New(c.Name+"_dag", c.NumQubits)
	for i := len(c.Gates) - 1; i >= 0; i-- {
		inv, err := c.Gates[i].Inverse()
		if err != nil {
			return nil, err
		}
		out.AddGate(inv)
	}
	return out, nil
}

// GateCount returns the number of gates with the given name; with no
// argument it returns the total gate count.
func (c *Circuit) GateCount(names ...string) int {
	if len(names) == 0 {
		return len(c.Gates)
	}
	want := map[string]bool{}
	for _, n := range names {
		want[strings.ToLower(n)] = true
	}
	count := 0
	for _, g := range c.Gates {
		if want[g.Name] {
			count++
		}
	}
	return count
}

// Depth returns the circuit depth: the number of parallel layers when
// gates on disjoint qubits are packed greedily. Barriers close all layers.
func (c *Circuit) Depth() int {
	busyUntil := make([]int, c.NumQubits)
	depth := 0
	for i := range c.Gates {
		g := &c.Gates[i]
		switch g.Name {
		case OpBarrier:
			for q := range busyUntil {
				busyUntil[q] = depth
			}
			continue
		case OpMeasureAll:
			layer := 0
			for q := range busyUntil {
				if busyUntil[q] > layer {
					layer = busyUntil[q]
				}
			}
			layer++
			for q := range busyUntil {
				busyUntil[q] = layer
			}
			if layer > depth {
				depth = layer
			}
			continue
		case OpDisplay:
			continue
		}
		layer := 0
		for _, q := range g.Qubits {
			if busyUntil[q] > layer {
				layer = busyUntil[q]
			}
		}
		layer++
		for _, q := range g.Qubits {
			busyUntil[q] = layer
		}
		if layer > depth {
			depth = layer
		}
	}
	return depth
}

// Validate checks every gate (Gate.Validate) and that its operands and
// condition bit lie inside the register; a gate's error is wrapped.
func (c *Circuit) Validate() error {
	for i, g := range c.Gates {
		if err := c.check(g); err != nil {
			return fmt.Errorf("circuit %q gate %d: %w", c.Name, i, err)
		}
	}
	return nil
}

// check is the whole contract for one gate of c.
func (c *Circuit) check(g Gate) error {
	if err := g.Validate(); err != nil {
		return err
	}
	for _, q := range g.Qubits {
		if q >= c.NumQubits {
			return fmt.Errorf("circuit: qubit %d out of range for %d-qubit register", q, c.NumQubits)
		}
	}
	if g.HasCond && g.CondBit >= c.NumQubits {
		return fmt.Errorf("circuit: condition bit %d out of range for %d-qubit register", g.CondBit, c.NumQubits)
	}
	return nil
}

// String renders the circuit one gate per line.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %s (%d qubits, %d gates)\n", c.Name, c.NumQubits, len(c.Gates))
	for _, g := range c.Gates {
		b.WriteString("  " + g.String() + "\n")
	}
	return b.String()
}
