package tsp

import (
	"fmt"
	"math"

	"repro/internal/qubo"
)

// Encoding holds a TSP→QUBO reduction. Variable x_{c,t} (index c*N+t)
// means city c is visited at time slot t; the paper's four interaction
// categories are (i) every node assigned, (ii) one time slot per city,
// (iii) one city per time slot, (iv) tour edge costs between consecutive
// slots. N cities need N² qubits — the quadratic growth of §3.3.
type Encoding struct {
	Graph   *Graph
	Q       *qubo.QUBO
	Penalty float64
}

// Var returns the QUBO variable index of x_{city,time}.
func (e *Encoding) Var(city, time int) int { return city*e.Graph.N + time }

// Encode builds the QUBO for the graph. penalty is the constraint weight
// A; it must exceed the largest possible tour-edge contribution, and
// defaults (when ≤ 0) to 2·N·max(w), which guarantees constraint
// violations are never energetically favourable.
func Encode(g *Graph, penalty float64) *Encoding {
	n := g.N
	if penalty <= 0 {
		maxW := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if g.W[i][j] > maxW {
					maxW = g.W[i][j]
				}
			}
		}
		penalty = 2 * float64(n) * maxW
		if penalty == 0 {
			penalty = 1
		}
	}
	q := qubo.New(n * n)
	e := &Encoding{Graph: g, Q: q, Penalty: penalty}

	// (i)+(ii) Each city appears in exactly one time slot:
	// A(1 − Σ_t x_{c,t})² = A(−Σ x + 2Σ_{t<t'} x x' ) + const.
	for c := 0; c < n; c++ {
		for t := 0; t < n; t++ {
			q.Add(e.Var(c, t), e.Var(c, t), -penalty)
			for t2 := t + 1; t2 < n; t2++ {
				q.Add(e.Var(c, t), e.Var(c, t2), 2*penalty)
			}
		}
	}
	// (iii) Each time slot holds exactly one city.
	for t := 0; t < n; t++ {
		for c := 0; c < n; c++ {
			q.Add(e.Var(c, t), e.Var(c, t), -penalty)
			for c2 := c + 1; c2 < n; c2++ {
				q.Add(e.Var(c, t), e.Var(c2, t), 2*penalty)
			}
		}
	}
	// (iv) Tour cost between consecutive time slots (cyclic).
	for t := 0; t < n; t++ {
		t2 := (t + 1) % n
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				q.Add(e.Var(a, t), e.Var(b, t2), g.W[a][b])
			}
		}
	}
	return e
}

// Decode extracts the tour from a QUBO assignment. It returns an error if
// the assignment violates the one-hot constraints.
func (e *Encoding) Decode(x []int) ([]int, error) {
	n := e.Graph.N
	if len(x) != n*n {
		return nil, fmt.Errorf("tsp: assignment length %d != %d", len(x), n*n)
	}
	tour := make([]int, n)
	for t := range tour {
		tour[t] = -1
	}
	for c := 0; c < n; c++ {
		count := 0
		for t := 0; t < n; t++ {
			if x[e.Var(c, t)] == 1 {
				count++
				if tour[t] != -1 {
					return nil, fmt.Errorf("tsp: time slot %d doubly assigned", t)
				}
				tour[t] = c
			}
		}
		if count != 1 {
			return nil, fmt.Errorf("tsp: city %d assigned %d times", c, count)
		}
	}
	for t, c := range tour {
		if c == -1 {
			return nil, fmt.Errorf("tsp: time slot %d unassigned", t)
		}
	}
	return tour, nil
}

// NumQubits returns the QUBO size N².
func (e *Encoding) NumQubits() int { return e.Graph.N * e.Graph.N }

// MaxCitiesForQubits answers the paper's capacity question: the largest
// N with N² ≤ qubits (e.g. 9 for ~81-qubit effective capacity on the
// D-Wave 2000Q after embedding, 90 for Fujitsu's 8192 fully-connected
// nodes).
func MaxCitiesForQubits(qubits int) int {
	if qubits < 4 {
		return 0
	}
	return int(math.Sqrt(float64(qubits)))
}
