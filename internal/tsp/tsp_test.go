package tsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func square() *Graph {
	// Unit square: optimal tour = perimeter 4.
	return FromPoints([][2]float64{{0, 0}, {1, 0}, {1, 1}, {0, 1}}, 1)
}

// validTour reports whether tour visits every city of g exactly once.
func validTour(g *Graph, tour []int) bool {
	if len(tour) != g.N {
		return false
	}
	seen := make([]bool, g.N)
	for _, c := range tour {
		if c < 0 || c >= g.N || seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// assignment returns the feasible QUBO assignment of a tour.
func assignment(e *Encoding, tour []int) []int {
	x := make([]int, e.NumQubits())
	for t, c := range tour {
		x[e.Var(c, t)] = 1
	}
	return x
}

// constraintOffset is the constant the quadratic expansion drops: each
// of the 2N one-hot constraints contributes A·1². Adding it back makes a
// feasible assignment's energy equal its tour cost.
func constraintOffset(e *Encoding) float64 { return 2 * float64(e.Graph.N) * e.Penalty }

func TestTourCost(t *testing.T) {
	g := square()
	if c := g.TourCost([]int{0, 1, 2, 3}); math.Abs(c-4) > 1e-12 {
		t.Errorf("perimeter = %v, want 4", c)
	}
	diag := g.TourCost([]int{0, 2, 1, 3})
	if diag <= 4 {
		t.Errorf("crossing tour %v should cost more than 4", diag)
	}
}

func TestBruteForceSquare(t *testing.T) {
	g := square()
	tour, cost := g.BruteForce()
	if !validTour(g, tour) {
		t.Fatalf("invalid tour %v", tour)
	}
	if math.Abs(cost-4) > 1e-12 {
		t.Errorf("optimal cost %v, want 4", cost)
	}
}

func TestNearestNeighborAndTwoOpt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points := make([][2]float64, 9)
	for i := range points {
		points[i] = [2]float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	g := FromPoints(points, 1)
	_, optimal := g.BruteForce()
	nnTour, nnCost := g.NearestNeighbor(0)
	if !validTour(g, nnTour) {
		t.Fatal("NN produced invalid tour")
	}
	if nnCost < optimal-1e-9 {
		t.Errorf("NN better than optimal?!")
	}
	toTour, toCost := g.TwoOpt(nnTour)
	if !validTour(g, toTour) {
		t.Fatal("2-opt produced invalid tour")
	}
	if toCost > nnCost+1e-9 {
		t.Errorf("2-opt worsened: %v → %v", nnCost, toCost)
	}
	if toCost < optimal-1e-9 {
		t.Error("2-opt better than optimal?!")
	}
}

func TestNetherlands4ReproducesFig9(t *testing.T) {
	g := Netherlands4()
	tour, cost := g.BruteForce()
	if math.Abs(cost-1.42) > 1e-9 {
		t.Errorf("Fig 9 optimal cost = %v, want 1.42", cost)
	}
	if !validTour(g, tour) {
		t.Error("invalid optimal tour")
	}
	if len(g.Names) != 4 {
		t.Error("city names missing")
	}
}

func TestEncodeSize(t *testing.T) {
	g := Netherlands4()
	e := Encode(g, 0)
	if e.NumQubits() != 16 {
		t.Errorf("4 cities need %d qubits, want 16 (paper: N²)", e.NumQubits())
	}
}

func TestEncodeBruteForceFindsOptimum(t *testing.T) {
	g := Netherlands4()
	e := Encode(g, 0)
	x, energy := e.Q.BruteForce()
	tour, err := e.Decode(x)
	if err != nil {
		t.Fatalf("optimal assignment infeasible: %v", err)
	}
	cost := g.TourCost(tour)
	if math.Abs(cost-1.42) > 1e-9 {
		t.Errorf("QUBO optimum decodes to cost %v, want 1.42", cost)
	}
	// Energy + offset must equal the tour cost.
	if math.Abs(energy+constraintOffset(e)-cost) > 1e-9 {
		t.Errorf("energy bookkeeping: %v + %v != %v", energy, constraintOffset(e), cost)
	}
}

func TestEncodeTourRoundTrip(t *testing.T) {
	g := square()
	e := Encode(g, 0)
	tour := []int{2, 0, 3, 1}
	x := assignment(e, tour)
	back, err := e.Decode(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tour {
		if back[i] != tour[i] {
			t.Fatalf("round trip changed tour: %v → %v", tour, back)
		}
	}
}

func TestDecodeRejectsInfeasible(t *testing.T) {
	g := square()
	e := Encode(g, 0)
	x := make([]int, 16)
	if _, err := e.Decode(x); err == nil {
		t.Error("all-zero assignment accepted")
	}
	x = assignment(e, []int{0, 1, 2, 3})
	x[e.Var(3, 0)] = 1 // two cities at slot 0
	if _, err := e.Decode(x); err == nil {
		t.Error("doubly-assigned slot accepted")
	}
	if _, err := e.Decode(make([]int, 3)); err == nil {
		t.Error("wrong length accepted")
	}
}

// Property: for random graphs and random tours, the QUBO energy of the
// encoded tour plus offset equals the tour cost, and infeasible
// assignments always cost more than the optimum.
func TestEncodingEnergyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(2)
		points := make([][2]float64, n)
		for i := range points {
			points[i] = [2]float64{rng.Float64(), rng.Float64()}
		}
		g := FromPoints(points, 1)
		e := Encode(g, 0)
		tour := rng.Perm(n)
		x := assignment(e, tour)
		if math.Abs(e.Q.Energy(x)+constraintOffset(e)-g.TourCost(tour)) > 1e-9 {
			return false
		}
		// A random infeasible flip must not beat the constraint penalty.
		x[rng.Intn(len(x))] ^= 1
		if _, err := e.Decode(x); err == nil {
			return true // flip happened to keep feasibility (impossible here, but safe)
		}
		_, bestTourCost := g.BruteForce()
		return e.Q.Energy(x)+constraintOffset(e) > bestTourCost-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMaxCitiesForQubits(t *testing.T) {
	cases := map[int]int{
		16:   4,
		81:   9,  // paper: 9 cities max on D-Wave 2000Q
		8192: 90, // paper: 90 cities on Fujitsu's 8192 fully-connected nodes
		3:    0,
		100:  10,
	}
	for qubits, want := range cases {
		if got := MaxCitiesForQubits(qubits); got != want {
			t.Errorf("MaxCitiesForQubits(%d) = %d, want %d", qubits, got, want)
		}
	}
}
