// Package tsp implements the Travelling Salesman use case of §3.3:
// weighted tour graphs, exact and heuristic classical solvers, and the
// QUBO encoding with N² binary variables x_{c,t} (city c visited at time
// t) that both the annealing and the gate-based (QAOA) accelerators
// consume.
package tsp

import (
	"fmt"
	"math"
)

// Graph is a complete weighted graph over N cities.
type Graph struct {
	N     int
	W     [][]float64
	Names []string
}

// NewGraph returns an N-city graph with zero weights.
func NewGraph(n int) *Graph {
	if n < 2 {
		panic("tsp: need at least 2 cities")
	}
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	return &Graph{N: n, W: w}
}

// SetWeight assigns the symmetric edge weight between cities a and b.
func (g *Graph) SetWeight(a, b int, w float64) {
	g.W[a][b] = w
	g.W[b][a] = w
}

// FromPoints builds a graph with scaled Euclidean distances, matching the
// paper's "TSP graph made from the scaled Euclidean distance".
func FromPoints(points [][2]float64, scale float64) *Graph {
	g := NewGraph(len(points))
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			dx := points[i][0] - points[j][0]
			dy := points[i][1] - points[j][1]
			g.SetWeight(i, j, scale*math.Hypot(dx, dy))
		}
	}
	return g
}

// TourCost sums the cyclic tour cost (returning to the start).
func (g *Graph) TourCost(tour []int) float64 {
	if len(tour) != g.N {
		panic(fmt.Sprintf("tsp: tour length %d != %d cities", len(tour), g.N))
	}
	var cost float64
	for i := range tour {
		cost += g.W[tour[i]][tour[(i+1)%len(tour)]]
	}
	return cost
}

// BruteForce enumerates all (N−1)! tours with city 0 fixed first and
// returns an optimal tour and its cost — the "enumerate all possible
// solutions" reference of Fig 9.
func (g *Graph) BruteForce() ([]int, float64) {
	rest := make([]int, 0, g.N-1)
	for c := 1; c < g.N; c++ {
		rest = append(rest, c)
	}
	best := append([]int{0}, rest...)
	bestCost := g.TourCost(best)
	tour := make([]int, g.N)
	tour[0] = 0
	var permute func(k int)
	current := append([]int(nil), rest...)
	permute = func(k int) {
		if k == len(current) {
			copy(tour[1:], current)
			if c := g.TourCost(tour); c < bestCost {
				bestCost = c
				best = append([]int(nil), tour...)
			}
			return
		}
		for i := k; i < len(current); i++ {
			current[k], current[i] = current[i], current[k]
			permute(k + 1)
			current[k], current[i] = current[i], current[k]
		}
	}
	permute(0)
	return best, bestCost
}

// NearestNeighbor returns the greedy tour from the given start city.
func (g *Graph) NearestNeighbor(start int) ([]int, float64) {
	visited := make([]bool, g.N)
	tour := make([]int, 0, g.N)
	cur := start
	visited[cur] = true
	tour = append(tour, cur)
	for len(tour) < g.N {
		next, nextW := -1, math.Inf(1)
		for c := 0; c < g.N; c++ {
			if !visited[c] && g.W[cur][c] < nextW {
				next, nextW = c, g.W[cur][c]
			}
		}
		visited[next] = true
		tour = append(tour, next)
		cur = next
	}
	return tour, g.TourCost(tour)
}

// TwoOpt improves a tour by 2-opt moves until no improvement remains.
func (g *Graph) TwoOpt(tour []int) ([]int, float64) {
	t := append([]int(nil), tour...)
	improved := true
	for improved {
		improved = false
		for i := 1; i < g.N-1; i++ {
			for j := i + 1; j < g.N; j++ {
				// Reverse segment [i, j] if it shortens the tour.
				a, b := t[i-1], t[i]
				c, d := t[j], t[(j+1)%g.N]
				delta := g.W[a][c] + g.W[b][d] - g.W[a][b] - g.W[c][d]
				if delta < -1e-12 {
					for l, r := i, j; l < r; l, r = l+1, r-1 {
						t[l], t[r] = t[r], t[l]
					}
					improved = true
				}
			}
		}
	}
	return t, g.TourCost(t)
}

// Netherlands4 returns the paper's Fig 9 instance: four Dutch cities with
// scaled Euclidean distances such that the optimal tour costs 1.42. The
// coordinates are approximate city positions (RD-like planar km); the
// scale is chosen so the enumerated optimum reproduces the figure's 1.42.
func Netherlands4() *Graph {
	// Amsterdam, Den Haag, Eindhoven, Groningen (planar approximations in
	// kilometres).
	points := [][2]float64{
		{121, 487}, // Amsterdam
		{80, 454},  // Den Haag
		{161, 383}, // Eindhoven
		{233, 582}, // Groningen
	}
	g := FromPoints(points, 1)
	_, raw := g.BruteForce()
	scaled := FromPoints(points, 1.42/raw)
	scaled.Names = []string{"Amsterdam", "Den Haag", "Eindhoven", "Groningen"}
	return scaled
}
