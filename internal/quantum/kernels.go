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

// fansOut reports whether a kernel over n amplitude groups runs across
// goroutines: parallelism is enabled and the range is large enough.
func (s *State) fansOut(n int) bool {
	return s.workers > 1 && n >= parallelThreshold
}

// parRange runs body over the index range [0, n) split into contiguous
// chunks, one goroutine per chunk. Chunks are disjoint, so bodies need no
// synchronisation beyond the final join. Each kernel writes its body once
// as a range method, calls it directly on the serial path and builds the
// closure for parRange only when fansOut says so, so a serial kernel
// allocates nothing.
func (s *State) parRange(n int, body func(lo, hi int)) {
	chunk := (n + s.workers - 1) / s.workers
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

// maskLows appends to dst the insertion masks for every set bit of mask,
// in ascending order, for use with expandN. Kernels pass a stack buffer
// of maxQubits entries as dst.
func maskLows(dst []int, mask, n int) []int {
	for q := 0; q < n; q++ {
		if bit := 1 << uint(q); mask&bit != 0 {
			dst = append(dst, bit-1)
		}
	}
	return dst
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

// pairLows returns the sorted insertion masks for a two-qubit kernel on
// bits a and b.
func pairLows(a, b int) (lowA, lowB int) {
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
	n := len(s.amps) / 2
	if s.fansOut(n) {
		s.parRange(n, func(lo, hi int) { s.xRange(lo, hi, bit) })
		return
	}
	s.xRange(0, n, bit)
}

// xRange is ApplyX over the amplitude pairs [lo, hi).
func (s *State) xRange(lo, hi, bit int) {
	low := bit - 1
	for p := lo; p < hi; p++ {
		i0 := expand1(p, low)
		i1 := i0 | bit
		s.amps[i0], s.amps[i1] = s.amps[i1], s.amps[i0]
	}
}

// ApplyY applies the Pauli-Y gate to qubit q: |0> ↦ i|1>, |1> ↦ -i|0>.
func (s *State) ApplyY(q int) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	n := len(s.amps) / 2
	if s.fansOut(n) {
		s.parRange(n, func(lo, hi int) { s.yRange(lo, hi, bit) })
		return
	}
	s.yRange(0, n, bit)
}

// yRange is ApplyY over the amplitude pairs [lo, hi).
func (s *State) yRange(lo, hi, bit int) {
	const u01, u10 = complex(0, -1), complex(0, 1)
	low := bit - 1
	for p := lo; p < hi; p++ {
		i0 := expand1(p, low)
		i1 := i0 | bit
		a0, a1 := s.amps[i0], s.amps[i1]
		s.amps[i0] = u01 * a1
		s.amps[i1] = u10 * a0
	}
}

// ApplyDiag applies the diagonal single-qubit gate diag(d0, d1) to qubit
// q. This one kernel covers Z, S, S†, T, T†, RZ and phase gates.
func (s *State) ApplyDiag(q int, d0, d1 complex128) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	n := len(s.amps) / 2
	if s.fansOut(n) {
		s.parRange(n, func(lo, hi int) { s.diagRange(lo, hi, bit, d0, d1) })
		return
	}
	s.diagRange(0, n, bit, d0, d1)
}

// diagRange is ApplyDiag over the amplitude pairs [lo, hi).
func (s *State) diagRange(lo, hi, bit int, d0, d1 complex128) {
	low := bit - 1
	if d0 == 1 {
		// Common case (Z, S, T, phase): only the bit-set half is touched.
		for p := lo; p < hi; p++ {
			s.amps[expand1(p, low)|bit] *= d1
		}
		return
	}
	for p := lo; p < hi; p++ {
		i0 := expand1(p, low)
		s.amps[i0] *= d0
		s.amps[i0|bit] *= d1
	}
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
	n := len(s.amps) / 4
	if s.fansOut(n) {
		s.parRange(n, func(lo, hi int) { s.cnotRange(lo, hi, cb, tb) })
		return
	}
	s.cnotRange(0, n, cb, tb)
}

// cnotRange is ApplyCNOT over the amplitude quads [lo, hi) of control
// bit cb and target bit tb.
func (s *State) cnotRange(lo, hi, cb, tb int) {
	lowA, lowB := pairLows(cb, tb)
	for p := lo; p < hi; p++ {
		i0 := expand2(p, lowA, lowB) | cb
		i1 := i0 | tb
		s.amps[i0], s.amps[i1] = s.amps[i1], s.amps[i0]
	}
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
	ab, bb := 1<<uint(a), 1<<uint(b)
	n := len(s.amps) / 4
	if s.fansOut(n) {
		s.parRange(n, func(lo, hi int) { s.cphaseRange(lo, hi, ab, bb, phase) })
		return
	}
	s.cphaseRange(0, n, ab, bb, phase)
}

// cphaseRange is ApplyCPhase over the amplitude quads [lo, hi) of bits
// ab and bb.
func (s *State) cphaseRange(lo, hi, ab, bb int, phase complex128) {
	lowA, lowB := pairLows(ab, bb)
	for p := lo; p < hi; p++ {
		s.amps[expand2(p, lowA, lowB)|ab|bb] *= phase
	}
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
	n := len(s.amps) / 4
	if s.fansOut(n) {
		s.parRange(n, func(lo, hi int) { s.swapRange(lo, hi, ab, bb) })
		return
	}
	s.swapRange(0, n, ab, bb)
}

// swapRange is ApplySWAP over the amplitude quads [lo, hi) of bits ab
// and bb.
func (s *State) swapRange(lo, hi, ab, bb int) {
	lowA, lowB := pairLows(ab, bb)
	for p := lo; p < hi; p++ {
		base := expand2(p, lowA, lowB)
		i0, i1 := base|ab, base|bb
		s.amps[i0], s.amps[i1] = s.amps[i1], s.amps[i0]
	}
}
