package qubo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomQUBO(n int, rng *rand.Rand) *QUBO {
	q := New(n)
	for i := 0; i < n; i++ {
		q.Set(i, i, rng.NormFloat64())
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.6 {
				q.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return q
}

func TestEnergyBasics(t *testing.T) {
	q := New(2)
	q.Set(0, 0, 1)  // x0
	q.Set(1, 1, -2) // -2 x1
	q.Set(0, 1, 3)  // 3 x0 x1
	cases := []struct {
		x []int
		e float64
	}{
		{[]int{0, 0}, 0},
		{[]int{1, 0}, 1},
		{[]int{0, 1}, -2},
		{[]int{1, 1}, 2},
	}
	for _, c := range cases {
		if got := q.Energy(c.x); math.Abs(got-c.e) > 1e-12 {
			t.Errorf("Energy(%v) = %v, want %v", c.x, got, c.e)
		}
	}
}

func TestEnergyBitsMatchesEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := randomQUBO(6, rng)
	for mask := 0; mask < 64; mask++ {
		x := make([]int, 6)
		for i := range x {
			if mask&(1<<uint(i)) != 0 {
				x[i] = 1
			}
		}
		if math.Abs(q.Energy(x)-q.EnergyBits(mask)) > 1e-12 {
			t.Fatalf("mask %d: Energy != EnergyBits", mask)
		}
	}
}

func TestSetAddSymmetry(t *testing.T) {
	q := New(3)
	q.Set(2, 0, 5)
	if q.At(0, 2) != 5 || q.At(2, 0) != 5 {
		t.Error("Set not order-insensitive")
	}
	q.Add(0, 2, 1)
	if q.At(2, 0) != 6 {
		t.Error("Add not accumulated")
	}
}

func TestBruteForce(t *testing.T) {
	// minimise (x0-1)^2-ish: E = -x0 has min at x0=1.
	q := New(3)
	q.Set(0, 0, -1)
	q.Set(1, 1, 2)
	q.Set(2, 2, -3)
	q.Set(0, 2, 5) // penalise both together
	x, e := q.BruteForce()
	// Candidates: x0=1 alone: -1; x2=1 alone: -3; both: -1-3+5=1. Optimal
	// is x2 only with -3... but x0 can also be 0: check x={0,0,1} e=-3.
	if x[2] != 1 || x[0] != 0 || x[1] != 0 || math.Abs(e+3) > 1e-12 {
		t.Errorf("BruteForce = %v, %v", x, e)
	}
}

func TestNumInteractionsAndGraph(t *testing.T) {
	q := New(4)
	q.Set(0, 1, 1)
	q.Set(2, 3, -2)
	q.Set(1, 1, 5) // diagonal: not an interaction
	if q.NumInteractions() != 2 {
		t.Errorf("interactions = %d, want 2", q.NumInteractions())
	}
	adj := q.InteractionGraph()
	if len(adj[0]) != 1 || adj[0][0] != 1 || len(adj[3]) != 1 || adj[3][0] != 2 {
		t.Errorf("graph wrong: %v", adj)
	}
}

// Property: QUBO → Ising preserves energy for every assignment.
func TestIsingEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		q := randomQUBO(n, rng)
		m := q.ToIsing()
		for trial := 0; trial < 20; trial++ {
			x := make([]int, n)
			for i := range x {
				x[i] = rng.Intn(2)
			}
			if math.Abs(q.Energy(x)-m.Energy(BitsToSpins(x))) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSpinBitConversions(t *testing.T) {
	s := []int{-1, 1, -1, 1}
	x := SpinsToBits(s)
	want := []int{0, 1, 0, 1}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("SpinsToBits wrong: %v", x)
		}
	}
	back := BitsToSpins(x)
	for i := range s {
		if back[i] != s[i] {
			t.Fatalf("round trip wrong: %v", back)
		}
	}
}

func TestIsingSetJ(t *testing.T) {
	m := NewIsing(3)
	m.SetJ(2, 0, 1.5)
	if m.GetJ(0, 2) != 1.5 {
		t.Error("SetJ not order-insensitive")
	}
	m.SetJ(0, 2, 0)
	if len(m.J) != 0 {
		t.Error("zero coupling should delete entry")
	}
}

func TestPanics(t *testing.T) {
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanic("New(0)", func() { New(0) })
	assertPanic("self-coupling", func() { NewIsing(2).SetJ(1, 1, 1) })
	assertPanic("bad length", func() { New(2).Energy([]int{1}) })
	assertPanic("brute force too large", func() { New(27).BruteForce() })
}

func TestCouplingsDeterministicOrder(t *testing.T) {
	m := NewIsing(5)
	m.SetJ(3, 1, 0.5)
	m.SetJ(0, 4, -1)
	m.SetJ(2, 0, 2)
	first := m.Couplings()
	for trial := 0; trial < 20; trial++ {
		again := m.Couplings()
		if len(again) != len(first) {
			t.Fatal("length changed")
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("order changed at %d: %v vs %v", i, again[i], first[i])
			}
		}
	}
	// Sorted by (I, J).
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.I > b.I || (a.I == b.I && a.J >= b.J) {
			t.Fatalf("not sorted: %v before %v", a, b)
		}
	}
}
