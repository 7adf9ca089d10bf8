package topology

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestLinear(t *testing.T) {
	l := Linear(5)
	if l.NumEdges() != 4 {
		t.Errorf("edges = %d, want 4", l.NumEdges())
	}
	if !l.Adjacent(2, 3) || l.Adjacent(0, 4) {
		t.Error("adjacency wrong")
	}
	if d := l.Distance(0, 4); d != 4 {
		t.Errorf("distance(0,4) = %d, want 4", d)
	}
	if p := l.ShortestPath(0, 3); len(p) != 4 || p[0] != 0 || p[3] != 3 {
		t.Errorf("path = %v", p)
	}
	if l.Diameter() != 4 {
		t.Errorf("diameter = %d", l.Diameter())
	}
}

// The distance tables fill lazily on first use; concurrent first calls
// (parallel mappers on one fresh device) must all see complete tables.
// Run with -race.
func TestConcurrentFirstShortestPath(t *testing.T) {
	l := Linear(17)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p := l.ShortestPath(0, 16); len(p) != 17 || p[16] != 16 {
				t.Errorf("path = %v", p)
			}
		}()
	}
	wg.Wait()
}

func TestRing(t *testing.T) {
	r := Ring(6)
	if r.NumEdges() != 6 {
		t.Errorf("edges = %d, want 6", r.NumEdges())
	}
	if d := r.Distance(0, 5); d != 1 {
		t.Errorf("ring distance(0,5) = %d, want 1", d)
	}
	if r.Diameter() != 3 {
		t.Errorf("ring-6 diameter = %d, want 3", r.Diameter())
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N != 12 {
		t.Fatalf("N = %d", g.N)
	}
	// 3 rows × 3 horizontal + 2 rows-gaps × 4 = 9 + 8 = 17 edges.
	if g.NumEdges() != 17 {
		t.Errorf("edges = %d, want 17", g.NumEdges())
	}
	if d := g.Distance(0, 11); d != 5 {
		t.Errorf("corner distance = %d, want 5", d)
	}
	if !g.Connected() {
		t.Error("grid disconnected")
	}
}

func TestFullyConnected(t *testing.T) {
	f := FullyConnected(6)
	if f.NumEdges() != 15 {
		t.Errorf("edges = %d, want 15", f.NumEdges())
	}
	if f.Diameter() != 1 {
		t.Errorf("diameter = %d, want 1", f.Diameter())
	}
}

func TestStar(t *testing.T) {
	s := Star(5)
	if s.Degree(0) != 4 || s.Degree(1) != 1 {
		t.Error("star degrees wrong")
	}
	if s.Distance(1, 2) != 2 {
		t.Error("spoke-to-spoke distance should be 2")
	}
}

func TestSurface17(t *testing.T) {
	s := Surface17()
	if s.N != 17 {
		t.Fatalf("N = %d", s.N)
	}
	if !s.Connected() {
		t.Error("surface-17 disconnected")
	}
	// Four bulk ancillas have degree 4; four boundary ancillas degree 2.
	deg4, deg2 := 0, 0
	for a := 9; a < 17; a++ {
		switch s.Degree(a) {
		case 4:
			deg4++
		case 2:
			deg2++
		}
	}
	if deg4 != 4 || deg2 != 4 {
		t.Errorf("ancilla degrees: %d×4 %d×2, want 4 and 4", deg4, deg2)
	}
	// Data qubits connect only to ancillas.
	for d := 0; d < 9; d++ {
		for _, nb := range s.Neighbors(d) {
			if nb < 9 {
				t.Errorf("data qubit %d adjacent to data qubit %d", d, nb)
			}
		}
	}
}

func TestChimera(t *testing.T) {
	c := Chimera(2, 2, 4)
	if c.N != 32 {
		t.Fatalf("N = %d, want 32", c.N)
	}
	// Per cell: 16 intra edges ×4 cells = 64; vertical: 1 gap ×2 cols ×4
	// = 8; horizontal: 1 gap ×2 rows ×4 = 8. Total 80.
	if c.NumEdges() != 80 {
		t.Errorf("edges = %d, want 80", c.NumEdges())
	}
	if !c.Connected() {
		t.Error("chimera disconnected")
	}
	// D-Wave 2000Q scale.
	big := Chimera(16, 16, 4)
	if big.N != 2048 {
		t.Errorf("C(16,16,4) has %d qubits, want 2048", big.N)
	}
	// Every Chimera qubit has degree ≤ k+2 = 6.
	for q := 0; q < c.N; q++ {
		if c.Degree(q) > 6 {
			t.Errorf("qubit %d degree %d > 6", q, c.Degree(q))
		}
	}
}

func TestEdgesOrderedAndUnique(t *testing.T) {
	g := Grid(2, 2)
	edges := g.Edges()
	seen := map[[2]int]bool{}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Errorf("edge %v not ordered", e)
		}
		if seen[e] {
			t.Errorf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestAddEdgeIgnoresBad(t *testing.T) {
	g := New("g", 3)
	g.AddEdge(0, 0)
	g.AddEdge(-1, 2)
	g.AddEdge(0, 5)
	if g.NumEdges() != 0 {
		t.Error("bad edges accepted")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if g.NumEdges() != 1 {
		t.Error("duplicate edge counted twice")
	}
}

func TestDisconnected(t *testing.T) {
	g := New("two-islands", 4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if g.Distance(0, 3) != -1 {
		t.Error("distance across components should be -1")
	}
	if g.ShortestPath(0, 3) != nil {
		t.Error("path across components should be nil")
	}
	if g.Diameter() != -1 {
		t.Error("diameter of disconnected graph should be -1")
	}
}

// Property: in any connected layout, path length equals distance and path
// endpoints match.
func TestShortestPathProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(seed%7+7)%7 // 2..8
		g := Grid(2, n)
		for a := 0; a < g.N; a++ {
			for b := 0; b < g.N; b++ {
				if a == b {
					continue
				}
				p := g.ShortestPath(a, b)
				if len(p) != g.Distance(a, b)+1 || p[0] != a || p[len(p)-1] != b {
					return false
				}
				for i := 0; i+1 < len(p); i++ {
					if !g.Adjacent(p[i], p[i+1]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
