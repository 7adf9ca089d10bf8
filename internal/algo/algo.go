// Package algo provides textbook quantum algorithms used as
// application-layer workloads for the stack (§2.2–2.3): teleportation
// (exercising the classical feed-forward the programming layer wraps
// around quantum logic) and Shor's factoring by order finding.
package algo

import "repro/internal/circuit"

// Teleport returns the 3-qubit teleportation circuit: the state prepared
// by `prep` on qubit 0 is teleported to qubit 2 using measurement and
// classically-controlled corrections (cQASM "c-x"/"c-z"). Measuring
// qubit 2 afterwards reproduces prep's statistics.
func Teleport(prep func(c *circuit.Circuit)) *circuit.Circuit {
	c := circuit.New("teleport", 3)
	// 1. Prepare the payload on qubit 0.
	prep(c)
	// 2. Bell pair between qubits 1 (Alice) and 2 (Bob).
	c.H(1).CNOT(1, 2)
	// 3. Bell measurement of qubits 0 and 1.
	c.CNOT(0, 1).H(0)
	c.Measure(0).Measure(1)
	// 4. Feed-forward corrections on Bob's qubit.
	c.AddGate(circuit.Gate{Name: "x", Qubits: []int{2}, HasCond: true, CondBit: 1})
	c.AddGate(circuit.Gate{Name: "z", Qubits: []int{2}, HasCond: true, CondBit: 0})
	return c
}
