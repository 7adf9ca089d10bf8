// Package cqasm implements the common quantum assembly language of the
// stack (§2.4): a textual, platform-independent representation of quantum
// circuits produced by the OpenQL compiler and executed by QX. It supports
// the core of cQASM 1.0: a version header, a qubit declaration,
// subcircuits with iteration counts, parallel bundles in braces, gate
// parameters (including pi expressions) and comments.
package cqasm

import (
	"strings"

	"repro/internal/circuit"
)

// Program is a parsed cQASM source: a qubit register plus an ordered list
// of subcircuits.
type Program struct {
	Version     string
	NumQubits   int
	Subcircuits []Subcircuit
}

// Subcircuit is a named block of bundles, optionally repeated.
type Subcircuit struct {
	Name       string
	Iterations int // 1 if not specified
	Bundles    []Bundle
}

// Bundle is one source line: one gate, or several gates executed in
// parallel (brace syntax). Gates in a bundle must touch disjoint qubits.
type Bundle struct {
	Gates []circuit.Gate
}

// Flatten expands the program into a single flat circuit: subcircuit
// iterations are unrolled and bundles serialised in order (semantically
// equivalent because bundled gates commute by disjointness). It takes a
// valid program: one Parse returned or FromCircuit built.
func (p *Program) Flatten() *circuit.Circuit {
	c := circuit.New("cqasm", p.NumQubits)
	for _, sub := range p.Subcircuits {
		for it := 0; it < max(sub.Iterations, 1); it++ {
			for _, b := range sub.Bundles {
				for _, g := range b.Gates {
					c.Gates = append(c.Gates, g.Clone())
				}
			}
		}
	}
	return c
}

// FromCircuit wraps a flat circuit as a single-subcircuit program, one
// gate per bundle.
func FromCircuit(c *circuit.Circuit) *Program {
	name := c.Name
	if name == "" {
		name = "main"
	}
	sub := Subcircuit{Name: sanitizeName(name), Iterations: 1}
	for _, g := range c.Gates {
		sub.Bundles = append(sub.Bundles, Bundle{Gates: []circuit.Gate{g.Clone()}})
	}
	return &Program{
		Version:     "1.0",
		NumQubits:   c.NumQubits,
		Subcircuits: []Subcircuit{sub},
	}
}

func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	if b.Len() == 0 {
		return "main"
	}
	return b.String()
}
