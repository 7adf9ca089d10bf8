// Package qec implements the quantum error correction substrate of §2.1
// ("realistic qubits"): the rotated planar surface code with data and
// ancilla qubits, error-syndrome measurement (ESM) rounds, a greedy
// matching decoder, logical error-rate estimation and the QEC overhead
// share of a computation. The noise model is code-capacity (i.i.d.
// data-qubit errors, perfect syndrome extraction); circuit-level noise is
// modelled separately by the qx layer.
package qec

import (
	"fmt"
)

// StabilizerType distinguishes X- and Z-type plaquettes.
type StabilizerType int

// Stabilizer types.
const (
	ZType StabilizerType = iota // detects X (bit-flip) errors
	XType                       // detects Z (phase-flip) errors
)

// Stabilizer is one plaquette of the rotated surface code.
type Stabilizer struct {
	Type StabilizerType
	// I, J are plaquette coordinates: corners are data qubits
	// (I,J), (I,J+1), (I+1,J), (I+1,J+1) clipped to the d×d grid.
	I, J    int
	Support []int // data-qubit indices r*d+c
}

// SurfaceCode is a distance-d rotated planar surface code: d² data
// qubits and d²−1 stabilizers.
type SurfaceCode struct {
	D           int
	Stabilizers []Stabilizer
}

// NewSurfaceCode builds the distance-d rotated layout (d odd ≥ 3):
// interior plaquettes checkerboarded Z/X, Z-type half-plaquettes on the
// north/south boundaries and X-type on the west/east boundaries.
func NewSurfaceCode(d int) (*SurfaceCode, error) {
	if d < 3 || d%2 == 0 {
		return nil, fmt.Errorf("qec: distance must be odd and ≥ 3, got %d", d)
	}
	sc := &SurfaceCode{D: d}
	for i := -1; i < d; i++ {
		for j := -1; j < d; j++ {
			var support []int
			for _, rc := range [][2]int{{i, j}, {i, j + 1}, {i + 1, j}, {i + 1, j + 1}} {
				if rc[0] >= 0 && rc[0] < d && rc[1] >= 0 && rc[1] < d {
					support = append(support, rc[0]*d+rc[1])
				}
			}
			if len(support) < 2 {
				continue // no single-qubit stabilizers in the rotated code
			}
			sType := ZType
			if abs(i+j)%2 == 1 {
				sType = XType
			}
			north := i == -1
			south := i == d-1
			west := j == -1
			east := j == d-1
			if len(support) == 2 {
				// Boundary plaquette: keep only Z on north/south, only X
				// on west/east.
				if (north || south) && sType != ZType {
					continue
				}
				if (west || east) && sType != XType {
					continue
				}
			}
			sc.Stabilizers = append(sc.Stabilizers, Stabilizer{Type: sType, I: i, J: j, Support: support})
		}
	}
	if got, want := len(sc.Stabilizers), d*d-1; got != want {
		return nil, fmt.Errorf("qec: layout bug: %d stabilizers, want %d", got, want)
	}
	return sc, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// NumDataQubits returns d².
func (sc *SurfaceCode) NumDataQubits() int { return sc.D * sc.D }

// SyndromeZ measures all Z-stabilizers against an X-error configuration
// (bit i set ⇔ data qubit i has an X error) and returns the indices of
// defect stabilizers (odd parity).
func (sc *SurfaceCode) SyndromeZ(xErrors []bool) []int {
	var defects []int
	for si, s := range sc.Stabilizers {
		if s.Type != ZType {
			continue
		}
		parity := 0
		for _, q := range s.Support {
			if xErrors[q] {
				parity ^= 1
			}
		}
		if parity == 1 {
			defects = append(defects, si)
		}
	}
	return defects
}

// LogicalXParity reports whether the X-error configuration flips the
// logical qubit: the overlap parity with the logical-Z column (c = 0).
// This is invariant across logical-Z representatives once the syndrome
// is clean.
func (sc *SurfaceCode) LogicalXParity(xErrors []bool) bool {
	parity := false
	for r := 0; r < sc.D; r++ {
		if xErrors[r*sc.D+0] {
			parity = !parity
		}
	}
	return parity
}

// ESMCycleOps counts the physical operations of one full error-syndrome
// measurement round: per stabilizer one ancilla preparation, one CNOT per
// support qubit, a basis change pair (H) for X-type, and one measurement.
// This is the bookkeeping behind the paper's ">90 % of computational
// activity" claim.
func (sc *SurfaceCode) ESMCycleOps() int {
	ops := 0
	for _, s := range sc.Stabilizers {
		ops++                 // prep ancilla
		ops += len(s.Support) // CNOTs
		if s.Type == XType {
			ops += 2 // H before and after
		}
		ops++ // measurement
	}
	return ops
}

// OverheadFraction returns the fraction of operations spent on error
// correction when logicalOps logical operations are interleaved with
// rounds ESM rounds — quantifying the paper's "fault-tolerant computation
// can easily consume more than 90% of the actual computational activity".
func OverheadFraction(esmOpsPerRound, rounds, logicalOps int) float64 {
	qec := esmOpsPerRound * rounds
	total := qec + logicalOps
	if total == 0 {
		return 0
	}
	return float64(qec) / float64(total)
}
