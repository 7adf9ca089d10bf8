// Package qam implements the quantum associative memory of §3.2
// (Ventura–Martinez style): a set of bit patterns stored as an equal
// superposition, recalled by amplitude amplification of the patterns
// closest to a query — the primitive behind the DNA read-alignment
// accelerator, where "the reference DNA is sliced and stored as indexed
// entries in a superposed quantum database giving exponential increase in
// capacity".
package qam

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/grover"
	"repro/internal/quantum"
)

// Memory is a quantum associative memory over n qubits.
type Memory struct {
	NumQubits int
	Patterns  []int
	state     *quantum.State
}

// Store builds the memory state: an equal superposition over the given
// patterns. (The Ventura–Martinez construction reaches this state with a
// polynomial-length circuit; here the state is prepared directly, which
// is unitarily equivalent.)
func Store(n int, patterns []int) (*Memory, error) {
	if n < 1 || n > 24 {
		return nil, fmt.Errorf("qam: unsupported register size %d", n)
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("qam: no patterns to store")
	}
	seen := map[int]bool{}
	for _, p := range patterns {
		if p < 0 || p >= 1<<uint(n) {
			return nil, fmt.Errorf("qam: pattern %d out of range for %d qubits", p, n)
		}
		if seen[p] {
			return nil, fmt.Errorf("qam: duplicate pattern %d", p)
		}
		seen[p] = true
	}
	s := quantum.NewState(n)
	s.SetAmplitude(0, 0)
	amp := complex(1/math.Sqrt(float64(len(patterns))), 0)
	for _, p := range patterns {
		s.SetAmplitude(p, amp)
	}
	return &Memory{NumQubits: n, Patterns: append([]int(nil), patterns...), state: s}, nil
}

// State returns a copy of the stored superposition.
func (m *Memory) State() *quantum.State { return m.state.Clone() }

// Capacity returns the number of stored patterns; the superposition holds
// them in n qubits — the exponential capacity increase of §3.2.
func (m *Memory) Capacity() int { return len(m.Patterns) }

// HammingDistance counts differing bits between two n-bit words.
func HammingDistance(a, b int) int { return bits.OnesCount(uint(a ^ b)) }

// RecallResult reports a recall operation.
type RecallResult struct {
	State       *quantum.State
	Iterations  int
	SuccessProb float64 // mass on patterns within the distance bound
	Matches     []int   // stored patterns within the distance bound
}

// Recall amplifies the stored patterns within maxDist Hamming distance of
// query, using amplitude amplification about the memory state. With
// iterations ≤ 0 the optimal count for the match fraction is used.
func (m *Memory) Recall(query, maxDist, iterations int) (*RecallResult, error) {
	if query < 0 || query >= 1<<uint(m.NumQubits) {
		return nil, fmt.Errorf("qam: query %d out of range", query)
	}
	var matches []int
	for _, p := range m.Patterns {
		if HammingDistance(p, query) <= maxDist {
			matches = append(matches, p)
		}
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("qam: no stored pattern within distance %d of query", maxDist)
	}
	oracle := func(idx int) bool { return HammingDistance(idx, query) <= maxDist }
	if iterations <= 0 {
		iterations = grover.OptimalIterations(len(m.Patterns), len(matches))
		if iterations == 0 {
			iterations = 1
		}
	}
	res := grover.Amplify(m.state, oracle, iterations)
	// Success = mass on the matching stored patterns specifically.
	var p float64
	probs := res.State.Probabilities()
	for _, pat := range matches {
		p += probs[pat]
	}
	return &RecallResult{
		State:       res.State,
		Iterations:  iterations,
		SuccessProb: p,
		Matches:     matches,
	}, nil
}
