package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/cqasm"
	"repro/internal/openql"
)

// Fuzz bounds: programs past them are skipped, not run, so one input
// never holds a fuzz worker for long.
const (
	fuzzMaxQubits = 6
	fuzzMaxGates  = 64
	fuzzShots     = 4
)

// FuzzStack feeds cQASM text through the parser and, when it is
// accepted and small, through the perfect and the superconducting stack.
// Every accepted program must run or return an error, and a run must
// count each shot once, as an outcome inside the register; none may
// panic. The seed corpus is in testdata/fuzz/FuzzStack.
func FuzzStack(f *testing.F) {
	stacks := []*Stack{NewPerfect(fuzzMaxQubits, 1), NewSuperconducting(1)}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := cqasm.Parse(src)
		if err != nil || prog.NumQubits > fuzzMaxQubits || flatGates(prog) > fuzzMaxGates {
			return
		}
		p := openql.ProgramFromCircuit("fuzz", prog.Flatten())
		for _, s := range stacks {
			rep, err := s.Execute(p, fuzzShots)
			if err != nil {
				continue // a refusal is allowed
			}
			shots := 0
			for idx, n := range rep.Result.Counts {
				if idx < 0 || idx >= 1<<p.NumQubits {
					t.Fatalf("%s: outcome %d outside the %d-qubit register\n%s", s.Name, idx, p.NumQubits, src)
				}
				shots += n
			}
			if shots != fuzzShots {
				t.Fatalf("%s: counts hold %d shots, want %d\n%s", s.Name, shots, fuzzShots, src)
			}
		}
	})
}

// flatGates counts the gates prog.Flatten would emit, saturating at
// fuzzMaxGates+1 so a large iteration count cannot overflow it.
func flatGates(prog *cqasm.Program) int {
	n := 0
	for _, sub := range prog.Subcircuits {
		per := 0
		for _, b := range sub.Bundles {
			per += len(b.Gates)
		}
		if per > 0 && max(sub.Iterations, 1) > fuzzMaxGates/per {
			return fuzzMaxGates + 1
		}
		if n += per * max(sub.Iterations, 1); n > fuzzMaxGates {
			return n
		}
	}
	return n
}

// TestExtremeAnglesRun compiles and runs the largest legal rotation
// angles on both stacks: the optimiser reduces an angle in constant time
// and keeps two merged rotations finite, so each job ends, and ends
// without a panic.
func TestExtremeAnglesRun(t *testing.T) {
	for _, angles := range [][]float64{
		{1e10}, {1e300}, {-1e300}, {math.MaxFloat64}, {-math.MaxFloat64},
		{1.7e308, 1.7e308}, {-1.7e308, -1.7e308},
	} {
		k := openql.NewKernel("k", 1)
		for _, a := range angles {
			k.RX(0, a)
		}
		p := openql.NewProgram("extreme", 1)
		p.AddKernel(k.Measure(0))
		for _, s := range []*Stack{NewPerfect(1, 1), NewSuperconducting(1)} {
			done := make(chan error, 1)
			go func() {
				_, err := s.Execute(p, 16)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("%s: rx %v: %v", s.Name, angles, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s: rx %v did not finish in 30 s", s.Name, angles)
			}
		}
	}
}
