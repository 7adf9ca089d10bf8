package compiler

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/circuit"
)

// randomGate returns a registered gate on distinct random qubits of an
// n-qubit register with random literal parameters; with symbolic, each
// parameter slot is symbolic with even odds, and with cond the gate is
// classically controlled.
func randomGate(rng *rand.Rand, name string, n int, symbolic, cond bool) circuit.Gate {
	spec, _ := circuit.Lookup(name)
	g := circuit.Gate{Name: name, Qubits: rng.Perm(n)[:spec.Arity]}
	if spec.NumParams > 0 {
		g.Params = make([]float64, spec.NumParams)
		for i := range g.Params {
			g.Params[i] = (rng.Float64() - 0.5) * 7
		}
	}
	if symbolic && spec.NumParams > 0 {
		g.Exprs = make([]*circuit.ParamExpr, spec.NumParams)
		for i := range g.Exprs {
			if rng.Intn(2) == 0 {
				g.Exprs[i] = circuit.Sym(fmt.Sprintf("s%d", rng.Intn(3))).Scale(0.1 + rng.Float64()).Add(circuit.Lit(g.Params[i]))
				g.Params[i] = 0
			}
		}
	}
	if cond {
		g.HasCond, g.CondBit = true, rng.Intn(n)
	}
	return g
}

// loweringGateSets are the native gate sets the lowering table is checked
// on: both presets, the shared NISQ set of the cold mix, an empty perfect
// set (everything native) and a set missing base primitives, where some
// expansions fail.
func loweringGateSets() map[string]*Platform {
	return map[string]*Platform{
		"superconducting": Superconducting(),
		"semiconducting":  Semiconducting(),
		"nisq":            nisqPlatform(8),
		"perfect":         {Name: "perfect", NumQubits: 8, Gates: map[string]GateInfo{}},
		"partial": {Name: "partial", NumQubits: 8, Gates: map[string]GateInfo{
			"rz": {DurationCycles: 1}, "x90": {DurationCycles: 1}, "cz": {DurationCycles: 2}}},
	}
}

// sameGate reports how got differs from want: names, operands, conditions,
// bit-identical literal parameters and String-equal symbolic ones.
func sameGate(got, want circuit.Gate) error {
	if got.Name != want.Name || !slices.Equal(got.Qubits, want.Qubits) ||
		got.HasCond != want.HasCond || got.CondBit != want.CondBit ||
		len(got.Params) != len(want.Params) || (got.Exprs == nil) != (want.Exprs == nil) {
		return fmt.Errorf("got %v (exprs %v), want %v (exprs %v)", got, got.Exprs != nil, want, want.Exprs != nil)
	}
	for i := range want.Params {
		if math.Float64bits(got.Params[i]) != math.Float64bits(want.Params[i]) {
			return fmt.Errorf("%s param %d: got %v, want %v", want.Name, i, got.Params[i], want.Params[i])
		}
		if got.Symbolic(i) != want.Symbolic(i) ||
			want.Symbolic(i) && got.Exprs[i].String() != want.Exprs[i].String() {
			return fmt.Errorf("%s param %d: got %s, want %s", want.Name, i, got, want)
		}
	}
	return nil
}

// TestLoweringTableMatchesRules checks the lowering table against the
// recursive rules it is built from, gate for gate: every registered gate,
// literal and symbolic, plain and conditioned, on every gate set, plus a
// name outside the registry.
func TestLoweringTableMatchesRules(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	names := append(circuit.Names(), "nosuch")
	for setName, p := range loweringGateSets() {
		for _, name := range names {
			for variant := 0; variant < 4; variant++ {
				g := circuit.Gate{Name: name, Qubits: []int{3}}
				if name != "nosuch" {
					g = randomGate(rng, name, 8, variant&1 == 1, variant&2 == 2)
				}
				want, wantErr := expandAll(nil, g, p)
				got, gotErr := Decompose(&circuit.Circuit{Name: "one", NumQubits: 8, Gates: []circuit.Gate{g}}, p)
				label := fmt.Sprintf("%s/%s", setName, g)
				if wantErr != nil || gotErr != nil {
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Errorf("%s: error %v, want %v", label, gotErr, wantErr)
					}
					continue
				}
				if len(got.Gates) != len(want) {
					t.Errorf("%s: %d primitives, want %d", label, len(got.Gates), len(want))
					continue
				}
				for i := range want {
					if err := sameGate(got.Gates[i], want[i]); err != nil {
						t.Errorf("%s: primitive %d: %v", label, i, err)
					}
				}
			}
		}
	}
}

// TestDecomposeMatchesRulesOnCircuits lowers whole random circuits — mixed
// gates, measurements, conditions and symbolic slots — and checks the
// output against the rules applied gate by gate, so the one-allocation
// sizing and the shared operand and parameter arrays are exercised too.
func TestDecomposeMatchesRulesOnCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	names := circuit.Names()
	for setName, p := range loweringGateSets() {
		if setName == "partial" {
			continue // most circuits fail there; the table test covers it
		}
		for trial := 0; trial < 20; trial++ {
			c := circuit.New("random", 6)
			for i := 0; i < 30; i++ {
				if rng.Intn(8) == 0 {
					c.Measure(rng.Intn(6))
					continue
				}
				c.Gates = append(c.Gates, randomGate(rng, names[rng.Intn(len(names))], 6, rng.Intn(3) == 0, rng.Intn(4) == 0))
			}
			var want []circuit.Gate
			for _, g := range c.Gates {
				var err error
				if want, err = expandAll(want, g, p); err != nil {
					t.Fatal(err)
				}
			}
			got, err := Decompose(c, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Gates) != len(want) {
				t.Fatalf("%s trial %d: %d gates, want %d", setName, trial, len(got.Gates), len(want))
			}
			for i := range want {
				if err := sameGate(got.Gates[i], want[i]); err != nil {
					t.Fatalf("%s trial %d gate %d: %v", setName, trial, i, err)
				}
			}
		}
	}
}

// TestLoweringTableOnHandBuiltPlatform checks that a Platform literal
// builds its table on first use and keeps one entry per name.
func TestLoweringTableOnHandBuiltPlatform(t *testing.T) {
	p := &Platform{Name: "hand", NumQubits: 3, Gates: nisqGates(1, 2, 15, 10)}
	c := circuit.New("c", 3).Toffoli(0, 1, 2).H(2)
	first, err := Decompose(c, p)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := p.loweringTable().Load("toffoli")
	second, err := Decompose(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := p.loweringTable().Load("toffoli"); again != l || l == nil {
		t.Error("toffoli's lowering was rebuilt")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("a second decomposition differs from the first")
	}
	bad := &circuit.Circuit{Name: "bad", NumQubits: 3, Gates: []circuit.Gate{{Name: "nosuch", Qubits: []int{0}}}}
	if _, err := Decompose(bad, p); err == nil || err.Error() != `compiler: no decomposition rule for gate "nosuch"` {
		t.Errorf("unknown gate: error %v", err)
	}
	if _, ok := p.loweringTable().Load("nosuch"); ok {
		t.Error("a name outside the registry entered the table")
	}
}

// TestShareLowerings checks that a platform rebuilt for a device of the
// same gate set reads its predecessor's table, with the same output, and
// that one of another gate set keeps its own.
func TestShareLowerings(t *testing.T) {
	prev := Superconducting()
	c := circuit.New("c", 3).Toffoli(0, 1, 2).RX(1, 0.3).SWAP(0, 2)
	want, err := Decompose(c, prev)
	if err != nil {
		t.Fatal(err)
	}
	retimed := prev.Target.Clone()
	retimed.Gates["cz"] = GateInfo{DurationCycles: 7}
	next := PlatformFor(retimed.WithCalibration(nil))
	next.ShareLowerings(prev)
	if next.loweringTable() != prev.loweringTable() {
		t.Fatal("a platform of the same gate set built its own table")
	}
	if got, err := Decompose(c, next); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("lowering through the shared table differs (error %v)", err)
	}
	other := Perfect(3)
	other.ShareLowerings(prev)
	if other.loweringTable() == prev.loweringTable() {
		t.Error("a platform of another gate set took the table")
	}
	other.ShareLowerings(nil)
}

// TestLoweringTableConcurrentFirstUse has goroutines meet a fresh
// platform's table at once, so entries are built concurrently (run it
// under -race), and checks every goroutine lowers identically.
func TestLoweringTableConcurrentFirstUse(t *testing.T) {
	p := Superconducting()
	c := circuit.New("c", 3).Toffoli(0, 1, 2).Add("fredkin", []int{2, 0, 1}).CPhase(0, 2, 0.4).RX(1, 0.2).SWAP(0, 1)
	want, err := Decompose(c, Superconducting())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*circuit.Circuit, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = Decompose(c, p)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Errorf("goroutine %d lowered differently", i)
		}
	}
}
