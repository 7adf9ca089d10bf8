package qx

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Result aggregates the outcome of a multi-shot execution. The paper notes
// that quantum accelerators aggregate measurement statistics over multiple
// runs inside the accelerator itself; Result is that aggregate.
type Result struct {
	NumQubits int
	Shots     int
	// Counts maps a measured basis-state index to its occurrence count.
	Counts map[int]int
	// WideCounts replaces Counts on registers too wide for an int index
	// (more than 63 qubits — stabilizer-engine territory): keys are
	// bitstrings with qubit 0 as the rightmost character, exactly the
	// BitString rendering of narrow outcomes. Nil on narrow registers;
	// when non-nil, Counts is empty.
	WideCounts map[string]int
	// GateErrorsInjected counts stochastic Pauli errors inserted by the
	// noise model across all shots (diagnostic).
	GateErrorsInjected int
	// ElapsedNs is the measured wall time of the execution that produced
	// this result, and Batches the number of parallel shot batches it ran
	// as (1 for a serial run). Both are observability diagnostics set by
	// Simulator.Run/RunParallel — excluded from determinism contracts and
	// never part of result equality (compare Counts).
	ElapsedNs int64
	Batches   int
}

// Probability returns the empirical probability of basis state idx.
func (r *Result) Probability(idx int) float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.Counts[idx]) / float64(r.Shots)
}

// Count returns the occurrence count of the outcome rendered as a
// bitstring (qubit 0 rightmost), transparently reading Counts or
// WideCounts. It is the register-width-independent accessor. A string
// longer than the register, or holding a character other than 0 and 1,
// names no outcome and counts 0.
func (r *Result) Count(bits string) int {
	if len(bits) > r.NumQubits || strings.Trim(bits, "01") != "" {
		return 0
	}
	if r.WideCounts != nil {
		return r.WideCounts[bits]
	}
	idx := 0
	for i := 0; i < len(bits); i++ {
		if idx > math.MaxInt>>1 {
			return 0 // wider than any index Counts can hold
		}
		idx = idx<<1 | int(bits[i]-'0')
	}
	return r.Counts[idx]
}

// ProbabilityOf returns the empirical probability of the outcome
// rendered as a bitstring, on registers of any width.
func (r *Result) ProbabilityOf(bits string) float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.Count(bits)) / float64(r.Shots)
}

// Top returns the k most frequent outcomes in descending order.
func (r *Result) Top(k int) []Outcome {
	var out []Outcome
	if r.WideCounts != nil {
		out = make([]Outcome, 0, len(r.WideCounts))
		for bs, c := range r.WideCounts {
			out = append(out, Outcome{Bits: bs, Count: c})
		}
	} else {
		out = make([]Outcome, 0, len(r.Counts))
		for idx, c := range r.Counts {
			out = append(out, Outcome{Index: idx, Bits: BitString(idx, r.NumQubits), Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Bits < out[j].Bits
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// countWords tallies k shots of one outcome delivered as packed register
// words.
func (r *Result) countWords(words []uint64, k int) {
	if r.WideCounts != nil {
		r.WideCounts[wordsBitString(words, r.NumQubits)] += k
		return
	}
	r.Counts[int(words[0])] += k
}

// wordsBitString renders packed register words as an n-character
// bitstring with qubit 0 rightmost, matching BitString.
func wordsBitString(words []uint64, n int) string {
	buf := make([]byte, n)
	for q := 0; q < n; q++ {
		buf[n-1-q] = '0' + byte((words[q>>6]>>(uint(q)&63))&1)
	}
	return string(buf)
}

// Outcome is one (basis state, count) pair. Index is meaningful only on
// registers of at most 63 qubits; Bits is always the bitstring
// rendering (qubit 0 rightmost).
type Outcome struct {
	Index int
	Bits  string
	Count int
}

// BitString renders idx as a binary string of width n with qubit 0 as the
// rightmost character (matching the amplitude-index convention).
func BitString(idx, n int) string {
	return fmt.Sprintf("%0*b", n, idx)
}

// Histogram renders the result as sorted "bitstring: count" lines.
func (r *Result) Histogram() string {
	var b strings.Builder
	n := len(r.Counts)
	if r.WideCounts != nil {
		n = len(r.WideCounts)
	}
	for _, o := range r.Top(n) {
		fmt.Fprintf(&b, "%s: %d (%.3f)\n", o.Bits, o.Count, r.ProbabilityOf(o.Bits))
	}
	return b.String()
}
