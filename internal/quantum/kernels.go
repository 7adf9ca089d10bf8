package quantum

import (
	"runtime"
	"sync"
)

// Specialized gate kernels. The generic ApplyOne/ApplyTwo paths multiply a
// dense 2×2/4×4 matrix into every amplitude group; the kernels below
// exploit gate structure instead — permutations (X, CNOT, SWAP) move
// amplitudes without arithmetic, diagonal gates (Z, S, T, RZ, phase,
// CPhase, CZ) multiply only the amplitudes they touch. All kernels produce
// measurement probabilities bit-identical to the generic path (the only
// representable difference is the sign of zero amplitudes), which is what
// lets the optimized QX engine substitute them freely while keeping seeded
// shot counts identical to the reference engine.

// parallelThreshold is the amplitude count from which kernels fan work out
// across goroutines when parallelism is enabled. Below it the
// goroutine-dispatch overhead dominates the arithmetic.
const parallelThreshold = 1 << 13

// SetParallelism sets the number of goroutines gate kernels may use on
// this state. workers <= 1 keeps every kernel serial (the default);
// workers <= 0 is reset to 1. Parallel application is bit-identical to
// serial: each amplitude group is read and written by exactly one
// goroutine, so only the iteration order changes — never a result.
func (s *State) SetParallelism(workers int) {
	if workers < 1 {
		workers = 1
	}
	s.workers = workers
}

// AutoParallelism enables kernel parallelism sized to the machine.
func (s *State) AutoParallelism() {
	s.SetParallelism(runtime.GOMAXPROCS(0))
}

// parRange runs body over the index range [0, n) split into contiguous
// chunks, one goroutine per chunk, when parallelism is enabled and the
// range is large enough; otherwise it runs body inline. Chunks are
// disjoint, so bodies need no synchronisation beyond the final join.
func (s *State) parRange(n int, body func(lo, hi int)) {
	w := s.workers
	if w <= 1 || n < parallelThreshold {
		body(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// expand1 maps a compact pair index p (the state index with qubit bit
// removed) back to the full index with a zero at that bit. low = bit-1.
func expand1(p, low int) int {
	return (p&^low)<<1 | p&low
}

// expand2 inserts zeros at two bit positions; lowA must belong to the
// lower of the two bits so the second insertion lands past the first.
func expand2(p, lowA, lowB int) int {
	p = (p&^lowA)<<1 | p&lowA
	return (p&^lowB)<<1 | p&lowB
}

// maskLows returns the insertion masks for every set bit of mask, in
// ascending order, for use with expandN.
func maskLows(mask, n int) []int {
	lows := make([]int, 0, n)
	for q := 0; q < n; q++ {
		if bit := 1 << uint(q); mask&bit != 0 {
			lows = append(lows, bit-1)
		}
	}
	return lows
}

// expandN inserts a zero bit at each position named by lows (ascending
// insertion masks from maskLows), mapping a compact group index to the
// group's lowest full state index.
func expandN(p int, lows []int) int {
	for _, low := range lows {
		p = (p&^low)<<1 | p&low
	}
	return p
}

// pairMasks returns the sorted insertion masks for a two-qubit kernel.
func pairMasks(q0, q1 int) (lowA, lowB int) {
	a, b := 1<<uint(q0), 1<<uint(q1)
	if a > b {
		a, b = b, a
	}
	return a - 1, b - 1
}

// ApplyX applies the Pauli-X (NOT) gate to qubit q by swapping amplitude
// pairs — a pure permutation, no arithmetic.
func (s *State) ApplyX(q int) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	low := bit - 1
	s.parRange(len(s.amps)/2, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			i0 := expand1(p, low)
			i1 := i0 | bit
			s.amps[i0], s.amps[i1] = s.amps[i1], s.amps[i0]
		}
	})
}

// ApplyY applies the Pauli-Y gate to qubit q: |0> ↦ i|1>, |1> ↦ -i|0>.
func (s *State) ApplyY(q int) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	low := bit - 1
	const u01, u10 = complex(0, -1), complex(0, 1)
	s.parRange(len(s.amps)/2, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			i0 := expand1(p, low)
			i1 := i0 | bit
			a0, a1 := s.amps[i0], s.amps[i1]
			s.amps[i0] = u01 * a1
			s.amps[i1] = u10 * a0
		}
	})
}

// ApplyDiag applies the diagonal single-qubit gate diag(d0, d1) to qubit
// q. This one kernel covers Z, S, S†, T, T†, RZ and phase gates.
func (s *State) ApplyDiag(q int, d0, d1 complex128) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	low := bit - 1
	if d0 == 1 {
		// Common case (Z, S, T, phase): only the bit-set half is touched.
		s.parRange(len(s.amps)/2, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				s.amps[expand1(p, low)|bit] *= d1
			}
		})
		return
	}
	s.parRange(len(s.amps)/2, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			i0 := expand1(p, low)
			s.amps[i0] *= d0
			s.amps[i0|bit] *= d1
		}
	})
}

// ApplyCNOT applies a controlled-NOT with the given control and target:
// amplitude pairs with the control bit set are swapped across the target
// bit.
func (s *State) ApplyCNOT(control, target int) {
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("quantum: ApplyCNOT requires distinct qubits")
	}
	cb, tb := 1<<uint(control), 1<<uint(target)
	lowA, lowB := pairMasks(control, target)
	s.parRange(len(s.amps)/4, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			i0 := expand2(p, lowA, lowB) | cb
			i1 := i0 | tb
			s.amps[i0], s.amps[i1] = s.amps[i1], s.amps[i0]
		}
	})
}

// ApplyCZ applies a controlled-Z to the pair: amplitudes with both bits
// set are negated.
func (s *State) ApplyCZ(a, b int) {
	s.ApplyCPhase(a, b, -1)
}

// ApplyCPhase applies the controlled phase gate diag(1,1,1,phase):
// amplitudes with both bits set are multiplied by phase.
func (s *State) ApplyCPhase(a, b int, phase complex128) {
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		panic("quantum: ApplyCPhase requires distinct qubits")
	}
	both := 1<<uint(a) | 1<<uint(b)
	lowA, lowB := pairMasks(a, b)
	s.parRange(len(s.amps)/4, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			s.amps[expand2(p, lowA, lowB)|both] *= phase
		}
	})
}

// ApplySWAP exchanges qubits a and b by swapping the amplitudes whose
// bits differ.
func (s *State) ApplySWAP(a, b int) {
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		panic("quantum: ApplySWAP requires distinct qubits")
	}
	ab, bb := 1<<uint(a), 1<<uint(b)
	lowA, lowB := pairMasks(a, b)
	s.parRange(len(s.amps)/4, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			base := expand2(p, lowA, lowB)
			i0, i1 := base|ab, base|bb
			s.amps[i0], s.amps[i1] = s.amps[i1], s.amps[i0]
		}
	})
}
