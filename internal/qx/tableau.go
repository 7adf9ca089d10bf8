package qx

import (
	"math/bits"
	"math/rand"
	"slices"
)

// Aaronson–Gottesman stabilizer tableau (the CHP algorithm,
// arXiv:quant-ph/0406196). The state of n qubits is represented by 2n
// Pauli strings — n destabilizers (rows 0..n-1) and n stabilizers (rows
// n..2n-1) — plus one scratch row used by deterministic measurement.
// Each row holds an X bit and a Z bit per qubit, packed into uint64
// words so gate conjugation and row multiplication run word-parallel,
// and a sign bit r: the row's Pauli is (-1)^r · X^x Z^z. Every Clifford
// gate updates the tableau in O(n) (column ops) and measurement in
// O(n^2/64) (row multiplications), which is what opens the 100+ qubit
// regime the dense engines cannot reach.

type tableau struct {
	n int // qubits
	w int // uint64 words per row: ceil(n/64)
	// x and z are (2n+1) rows by w words, flattened row-major.
	x []uint64
	z []uint64
	r []uint8 // sign bit per row
}

// newTableau returns the tableau of |0...0>: destabilizer i = X_i,
// stabilizer i = Z_i, all signs +.
func newTableau(n int) *tableau {
	w := (n + 63) / 64
	t := &tableau{
		n: n,
		w: w,
		x: make([]uint64, (2*n+1)*w),
		z: make([]uint64, (2*n+1)*w),
		r: make([]uint8, 2*n+1),
	}
	for i := 0; i < n; i++ {
		t.x[i*w+(i>>6)] |= 1 << (uint(i) & 63)
		t.z[(n+i)*w+(i>>6)] |= 1 << (uint(i) & 63)
	}
	return t
}

// clone returns an independent copy of t.
func (t *tableau) clone() *tableau {
	return &tableau{n: t.n, w: t.w, x: slices.Clone(t.x), z: slices.Clone(t.z), r: slices.Clone(t.r)}
}

// copyFrom overwrites t with src, a tableau of the same size, without
// allocating: a noisy shot's reset to |0...0> and the outcome tree's
// scratch reload.
func (t *tableau) copyFrom(src *tableau) {
	copy(t.x, src.x)
	copy(t.z, src.z)
	copy(t.r, src.r)
}

func (t *tableau) xbit(row, q int) bool {
	return t.x[row*t.w+(q>>6)]&(1<<(uint(q)&63)) != 0
}

// applyH conjugates every row by H(q): X<->Z, phase flips on Y.
func (t *tableau) applyH(q int) {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < 2*t.n; i++ {
		px, pz := &t.x[i*t.w+wq], &t.z[i*t.w+wq]
		xb, zb := *px&m, *pz&m
		if xb != 0 && zb != 0 {
			t.r[i] ^= 1
		}
		if (xb != 0) != (zb != 0) {
			*px ^= m
			*pz ^= m
		}
	}
}

// applyS conjugates by S(q): X -> Y, phase flips on Y.
func (t *tableau) applyS(q int) {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < 2*t.n; i++ {
		px, pz := &t.x[i*t.w+wq], &t.z[i*t.w+wq]
		if *px&m != 0 {
			if *pz&m != 0 {
				t.r[i] ^= 1
			}
			*pz ^= m
		}
	}
}

// applySdag conjugates by S†(q) = Z·S: X -> -Y.
func (t *tableau) applySdag(q int) {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < 2*t.n; i++ {
		px, pz := &t.x[i*t.w+wq], &t.z[i*t.w+wq]
		if *px&m != 0 {
			if *pz&m == 0 {
				t.r[i] ^= 1
			}
			*pz ^= m
		}
	}
}

// applyX conjugates by X(q): phase flips on Z and Y.
func (t *tableau) applyX(q int) {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < 2*t.n; i++ {
		if t.z[i*t.w+wq]&m != 0 {
			t.r[i] ^= 1
		}
	}
}

// applyZ conjugates by Z(q): phase flips on X and Y.
func (t *tableau) applyZ(q int) {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < 2*t.n; i++ {
		if t.x[i*t.w+wq]&m != 0 {
			t.r[i] ^= 1
		}
	}
}

// applyY conjugates by Y(q): phase flips on X and Z.
func (t *tableau) applyY(q int) {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < 2*t.n; i++ {
		row := i * t.w
		if (t.x[row+wq]&m != 0) != (t.z[row+wq]&m != 0) {
			t.r[i] ^= 1
		}
	}
}

// applyCNOT conjugates by CNOT(c -> tq).
func (t *tableau) applyCNOT(c, tq int) {
	wc, mc := c>>6, uint64(1)<<(uint(c)&63)
	wt, mt := tq>>6, uint64(1)<<(uint(tq)&63)
	for i := 0; i < 2*t.n; i++ {
		row := i * t.w
		xc, zc := t.x[row+wc]&mc != 0, t.z[row+wc]&mc != 0
		xt, zt := t.x[row+wt]&mt != 0, t.z[row+wt]&mt != 0
		if xc && zt && (xt == zc) {
			t.r[i] ^= 1
		}
		if xc {
			t.x[row+wt] ^= mt
		}
		if zt {
			t.z[row+wc] ^= mc
		}
	}
}

// applyCZ conjugates by CZ(a, b): X_a -> X_a Z_b, X_b -> X_b Z_a.
func (t *tableau) applyCZ(a, b int) {
	wa, ma := a>>6, uint64(1)<<(uint(a)&63)
	wb, mb := b>>6, uint64(1)<<(uint(b)&63)
	for i := 0; i < 2*t.n; i++ {
		row := i * t.w
		xa, za := t.x[row+wa]&ma != 0, t.z[row+wa]&ma != 0
		xb, zb := t.x[row+wb]&mb != 0, t.z[row+wb]&mb != 0
		if xa && xb && (za != zb) {
			t.r[i] ^= 1
		}
		if xb {
			t.z[row+wa] ^= ma
		}
		if xa {
			t.z[row+wb] ^= mb
		}
	}
}

// applySWAP exchanges the X and Z columns of qubits a and b.
func (t *tableau) applySWAP(a, b int) {
	wa, ma := a>>6, uint64(1)<<(uint(a)&63)
	wb, mb := b>>6, uint64(1)<<(uint(b)&63)
	for i := 0; i < 2*t.n; i++ {
		row := i * t.w
		xa, xb := t.x[row+wa]&ma != 0, t.x[row+wb]&mb != 0
		if xa != xb {
			t.x[row+wa] ^= ma
			t.x[row+wb] ^= mb
		}
		za, zb := t.z[row+wa]&ma != 0, t.z[row+wb]&mb != 0
		if za != zb {
			t.z[row+wa] ^= ma
			t.z[row+wb] ^= mb
		}
	}
}

// rowmult multiplies row h by row i in place (the AG "rowsum"): the
// Pauli of row h becomes the product P_i · P_h with the correct sign,
// tracked word-parallel by counting the +i and -i contributions of each
// single-qubit Pauli product.
func (t *tableau) rowmult(h, i int) {
	hw, iw := h*t.w, i*t.w
	e := 0
	for k := 0; k < t.w; k++ {
		x1, z1 := t.x[iw+k], t.z[iw+k] // row i (left factor)
		x2, z2 := t.x[hw+k], t.z[hw+k] // row h (right factor)
		// +i from X·Y, Y·Z, Z·X; -i from X·Z, Y·X, Z·Y.
		pos := (x1 & ^z1 & x2 & z2) | (x1 & z1 & ^x2 & z2) | (^x1 & z1 & x2 & ^z2)
		neg := (x1 & ^z1 & ^x2 & z2) | (x1 & z1 & x2 & ^z2) | (^x1 & z1 & x2 & z2)
		e += bits.OnesCount64(pos) - bits.OnesCount64(neg)
		t.x[hw+k] = x1 ^ x2
		t.z[hw+k] = z1 ^ z2
	}
	tot := ((2*int(t.r[h]+t.r[i])+e)%4 + 4) % 4
	t.r[h] = uint8(tot >> 1)
}

// pivot returns the first stabilizer row that anticommutes with Z_q —
// one with X support on q — or -1 when measuring q is deterministic.
func (t *tableau) pivot(q int) int {
	for i := t.n; i < 2*t.n; i++ {
		if t.xbit(i, q) {
			return i
		}
	}
	return -1
}

// prob returns the probability that measuring qubit q in the
// computational basis yields 1 — always 0, 0.5 or 1 for a stabilizer
// state. When no stabilizer anticommutes with Z_q the outcome is forced:
// the product of the stabilizers whose destabilizer partners have X
// support on q, built in the scratch row, fixes Z_q's sign.
func (t *tableau) prob(q int) float64 {
	if t.pivot(q) >= 0 {
		return 0.5
	}
	s := 2 * t.n // scratch row
	sw := s * t.w
	for k := 0; k < t.w; k++ {
		t.x[sw+k] = 0
		t.z[sw+k] = 0
	}
	t.r[s] = 0
	for i := 0; i < t.n; i++ {
		if t.xbit(i, q) {
			t.rowmult(s, t.n+i)
		}
	}
	return float64(t.r[s])
}

// project collapses the state onto the given outcome of measuring qubit
// q, which must have nonzero probability. A forced outcome leaves the
// tableau as it is; a random one multiplies the pivot stabilizer row —
// the first that anticommutes with Z_q — into every other row that
// does.
func (t *tableau) project(q, outcome int) {
	pivot := t.pivot(q)
	if pivot < 0 {
		return
	}
	for i := 0; i < 2*t.n; i++ {
		if i != pivot && t.xbit(i, q) {
			t.rowmult(i, pivot)
		}
	}
	// The old stabilizer becomes the destabilizer of the measured qubit;
	// the stabilizer row becomes ±Z_q.
	dw, pw := (pivot-t.n)*t.w, pivot*t.w
	copy(t.x[dw:dw+t.w], t.x[pw:pw+t.w])
	copy(t.z[dw:dw+t.w], t.z[pw:pw+t.w])
	t.r[pivot-t.n] = t.r[pivot]
	for k := 0; k < t.w; k++ {
		t.x[pw+k] = 0
		t.z[pw+k] = 0
	}
	t.z[pw+(q>>6)] |= 1 << (uint(q) & 63)
	t.r[pivot] = uint8(outcome)
}

// supportSampler samples computational-basis outcomes of a stabilizer
// state with a single uniform draw per shot, matching the dense
// engines' cumulative-distribution samplers. The support of a
// stabilizer state is an affine subspace {base ⊕ span(vecs)} over GF(2)
// with all 2^k elements equally likely; vecs is in reduced row-echelon
// form with strictly descending pivots and base has every pivot bit
// clear, so the basis-index j enumerates support elements in increasing
// integer order — exactly the order dense cumulative samplers walk.
type supportSampler struct {
	n    int
	w    int
	base []uint64
	vecs [][]uint64
	// rows and words are the elimination's storage: vecs and rows slice
	// words, so a rebuild for a tableau of the same size allocates
	// nothing.
	rows  [][]uint64
	words []uint64
}

// newSupportSampler destructively extracts the support of t.
func newSupportSampler(t *tableau) *supportSampler {
	s := &supportSampler{}
	s.rebuild(t)
	return s
}

// rebuild destructively extracts the support of t into s, reusing the
// storage of an earlier build.
func (s *supportSampler) rebuild(t *tableau) {
	s.n, s.w = t.n, t.w
	if len(s.words) != t.n*t.w {
		s.words = make([]uint64, t.n*t.w)
		s.rows = make([][]uint64, 0, t.n)
		s.vecs = make([][]uint64, 0, t.n)
		s.base = make([]uint64, t.w)
	}
	// Basis of the span: the X parts of the stabilizer generators,
	// Gauss-reduced over GF(2).
	copy(s.words, t.x[t.n*t.w:2*t.n*t.w])
	rows := s.rows[:0]
	for i := 0; i < t.n; i++ {
		rows = append(rows, s.words[i*t.w:(i+1)*t.w:(i+1)*t.w])
	}
	s.vecs = s.vecs[:0]
	for b := t.n - 1; b >= 0; b-- {
		wb, mb := b>>6, uint64(1)<<(uint(b)&63)
		pivot := -1
		for ri, row := range rows {
			if row[wb]&mb != 0 {
				pivot = ri
				break
			}
		}
		if pivot < 0 {
			continue
		}
		v := rows[pivot]
		rows = append(rows[:pivot], rows[pivot+1:]...)
		for _, row := range rows {
			if row[wb]&mb != 0 {
				xorWords(row, v)
			}
		}
		for _, prev := range s.vecs {
			if prev[wb]&mb != 0 {
				xorWords(prev, v)
			}
		}
		s.vecs = append(s.vecs, v)
	}
	// One support element, canonicalised to the coset representative
	// with all pivot bits clear.
	clear(s.base)
	for q := 0; q < t.n; q++ {
		switch t.prob(q) {
		case 1:
			s.base[q>>6] |= 1 << (uint(q) & 63)
		case 0.5:
			t.project(q, 0)
		}
	}
	for _, v := range s.vecs {
		hb := highestBit(v)
		if s.base[hb>>6]&(1<<(uint(hb)&63)) != 0 {
			xorWords(s.base, v)
		}
	}
}

// sample draws one support element uniformly into out (length w). For
// k ≤ 52 span dimensions a single rng.Float64 draw selects the element,
// reproducing the dense samplers' draw sequence; wider spans (beyond any
// state a dense engine could ever hold) consume one draw per 32 basis
// bits.
func (s *supportSampler) sample(rng *rand.Rand, out []uint64) {
	copy(out, s.base)
	k := len(s.vecs)
	if k <= 52 {
		j := uint64(rng.Float64() * float64(uint64(1)<<uint(k)))
		if j >= uint64(1)<<uint(k) {
			j = uint64(1)<<uint(k) - 1
		}
		for i, v := range s.vecs {
			if j&(1<<uint(k-1-i)) != 0 {
				xorWords(out, v)
			}
		}
		return
	}
	for lo := 0; lo < k; lo += 32 {
		hi := lo + 32
		if hi > k {
			hi = k
		}
		chunk := uint64(rng.Float64() * float64(uint64(1)<<uint(hi-lo)))
		for i := lo; i < hi; i++ {
			if chunk&(1<<uint(hi-1-i)) != 0 {
				xorWords(out, s.vecs[i])
			}
		}
	}
}

func xorWords(dst, src []uint64) {
	for k := range dst {
		dst[k] ^= src[k]
	}
}

func highestBit(words []uint64) int {
	for k := len(words) - 1; k >= 0; k-- {
		if words[k] != 0 {
			return k*64 + 63 - bits.LeadingZeros64(words[k])
		}
	}
	return -1
}
