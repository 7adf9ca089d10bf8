// Package qubo implements the Quadratic Unconstrained Binary Optimisation
// model of §3.3 — minimise y = xᵀQx over binary x — together with the
// isomorphic Ising spin model used by quantum annealers, exact
// brute-force solving for validation, and conversions between the two
// forms.
package qubo

import (
	"fmt"
	"math"
	"sort"
)

// QUBO is a quadratic form over binary variables x ∈ {0,1}ⁿ. Q is stored
// as an upper-triangular matrix: linear terms live on the diagonal.
type QUBO struct {
	N int
	q [][]float64 // upper triangular: q[i][j] valid for j ≥ i
}

// New returns an n-variable QUBO with all coefficients zero.
func New(n int) *QUBO {
	if n <= 0 {
		panic("qubo: non-positive size")
	}
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	return &QUBO{N: n, q: q}
}

// Set assigns coefficient (i,j); order of i and j is irrelevant.
func (q *QUBO) Set(i, j int, v float64) {
	if i > j {
		i, j = j, i
	}
	q.q[i][j] = v
}

// Add accumulates into coefficient (i,j).
func (q *QUBO) Add(i, j int, v float64) {
	if i > j {
		i, j = j, i
	}
	q.q[i][j] += v
}

// At returns coefficient (i,j) in upper-triangular form.
func (q *QUBO) At(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	return q.q[i][j]
}

// Energy evaluates xᵀQx for a binary assignment.
func (q *QUBO) Energy(x []int) float64 {
	if len(x) != q.N {
		panic(fmt.Sprintf("qubo: assignment length %d != %d", len(x), q.N))
	}
	var e float64
	for i := 0; i < q.N; i++ {
		if x[i] == 0 {
			continue
		}
		e += q.q[i][i]
		for j := i + 1; j < q.N; j++ {
			if x[j] != 0 {
				e += q.q[i][j]
			}
		}
	}
	return e
}

// EnergyBits evaluates the energy of the assignment encoded as a bit mask
// (bit i = x_i), matching the basis-index convention of the simulator.
func (q *QUBO) EnergyBits(mask int) float64 {
	var e float64
	for i := 0; i < q.N; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		e += q.q[i][i]
		for j := i + 1; j < q.N; j++ {
			if mask&(1<<uint(j)) != 0 {
				e += q.q[i][j]
			}
		}
	}
	return e
}

// NumInteractions counts the non-zero off-diagonal couplings.
func (q *QUBO) NumInteractions() int {
	count := 0
	for i := 0; i < q.N; i++ {
		for j := i + 1; j < q.N; j++ {
			if q.q[i][j] != 0 {
				count++
			}
		}
	}
	return count
}

// InteractionGraph returns the adjacency lists of variables coupled by
// non-zero quadratic terms (the graph a minor embedder must map).
func (q *QUBO) InteractionGraph() [][]int {
	adj := make([][]int, q.N)
	for i := 0; i < q.N; i++ {
		for j := i + 1; j < q.N; j++ {
			if q.q[i][j] != 0 {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj
}

// BruteForce exhaustively minimises the QUBO (N ≤ 26). It returns the
// optimal assignment and its energy.
func (q *QUBO) BruteForce() ([]int, float64) {
	if q.N > 26 {
		panic("qubo: brute force beyond 26 variables")
	}
	best := 0
	bestE := math.Inf(1)
	for mask := 0; mask < 1<<uint(q.N); mask++ {
		e := q.EnergyBits(mask)
		if e < bestE {
			bestE = e
			best = mask
		}
	}
	x := make([]int, q.N)
	for i := range x {
		if best&(1<<uint(i)) != 0 {
			x[i] = 1
		}
	}
	return x, bestE
}

// Ising is the spin-model form: E(s) = Σ h_i s_i + Σ_{i<j} J_ij s_i s_j +
// offset, with s ∈ {−1,+1}ⁿ.
type Ising struct {
	N      int
	H      []float64
	J      map[[2]int]float64 // keys with i < j
	Offset float64
}

// NewIsing returns an n-spin Ising model with zero fields and couplings.
func NewIsing(n int) *Ising {
	return &Ising{N: n, H: make([]float64, n), J: map[[2]int]float64{}}
}

// SetJ assigns coupling J_ij (order-insensitive).
func (m *Ising) SetJ(i, j int, v float64) {
	if i == j {
		panic("qubo: self-coupling")
	}
	if i > j {
		i, j = j, i
	}
	if v == 0 {
		delete(m.J, [2]int{i, j})
		return
	}
	m.J[[2]int{i, j}] = v
}

// GetJ returns coupling J_ij.
func (m *Ising) GetJ(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	return m.J[[2]int{i, j}]
}

// Couplings returns the non-zero couplings in deterministic (sorted key)
// order. Algorithms must iterate couplings through this accessor rather
// than the map, so that floating-point summation order — and hence
// seeded Monte-Carlo trajectories — are reproducible across runs.
func (m *Ising) Couplings() []Coupling {
	out := make([]Coupling, 0, len(m.J))
	for key, j := range m.J {
		out = append(out, Coupling{I: key[0], J: key[1], Value: j})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

// Coupling is one Ising interaction term with I < J.
type Coupling struct {
	I, J  int
	Value float64
}

// Energy evaluates the Ising energy of spins s ∈ {−1,+1}ⁿ.
func (m *Ising) Energy(s []int) float64 {
	if len(s) != m.N {
		panic(fmt.Sprintf("qubo: spin length %d != %d", len(s), m.N))
	}
	e := m.Offset
	for i, h := range m.H {
		e += h * float64(s[i])
	}
	for _, c := range m.Couplings() {
		e += c.Value * float64(s[c.I]) * float64(s[c.J])
	}
	return e
}

// ToIsing converts the QUBO to the isomorphic Ising model via
// x = (1+s)/2, preserving energies exactly (including the offset).
func (q *QUBO) ToIsing() *Ising {
	m := NewIsing(q.N)
	for i := 0; i < q.N; i++ {
		d := q.q[i][i]
		m.H[i] += d / 2
		m.Offset += d / 2
		for j := i + 1; j < q.N; j++ {
			c := q.q[i][j]
			if c == 0 {
				continue
			}
			m.SetJ(i, j, m.GetJ(i, j)+c/4)
			m.H[i] += c / 4
			m.H[j] += c / 4
			m.Offset += c / 4
		}
	}
	return m
}

// SpinsToBits converts ±1 spins to 0/1 bits (s=+1 → x=1).
func SpinsToBits(s []int) []int {
	x := make([]int, len(s))
	for i, v := range s {
		if v > 0 {
			x[i] = 1
		}
	}
	return x
}

// BitsToSpins converts 0/1 bits to ±1 spins.
func BitsToSpins(x []int) []int {
	s := make([]int, len(x))
	for i, v := range x {
		if v > 0 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}
