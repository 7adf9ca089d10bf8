package circuit

import (
	"math"
	"math/rand"
)

// Bell returns the 2-qubit circuit preparing (|00> + |11>)/√2.
func Bell() *Circuit {
	return New("bell", 2).H(0).CNOT(0, 1)
}

// GHZ returns the n-qubit circuit preparing (|0...0> + |1...1>)/√2 using a
// CNOT chain, the canonical full-entanglement benchmark the paper uses to
// characterise QX capacity.
func GHZ(n int) *Circuit {
	c := New("ghz", n).H(0)
	for q := 1; q < n; q++ {
		c.CNOT(q-1, q)
	}
	return c
}

// QFT returns the n-qubit quantum Fourier transform (without the final
// qubit reversal swaps when swaps is false).
func QFT(n int, swaps bool) *Circuit {
	c := New("qft", n)
	for i := n - 1; i >= 0; i-- {
		c.H(i)
		for j := i - 1; j >= 0; j-- {
			k := i - j + 1
			c.CPhase(j, i, 2*math.Pi/math.Pow(2, float64(k)))
		}
	}
	if swaps {
		for i := 0; i < n/2; i++ {
			c.SWAP(i, n-1-i)
		}
	}
	return c
}

// RandomCircuit returns a random circuit of the given depth: each layer
// applies random single-qubit rotations to every qubit followed by CNOTs
// on a random pairing. Used for scaling and mapping benchmarks.
func RandomCircuit(n, depth int, rng *rand.Rand) *Circuit {
	c := New("random", n)
	for d := 0; d < depth; d++ {
		for q := 0; q < n; q++ {
			switch rng.Intn(4) {
			case 0:
				c.RX(q, rng.Float64()*2*math.Pi)
			case 1:
				c.RY(q, rng.Float64()*2*math.Pi)
			case 2:
				c.RZ(q, rng.Float64()*2*math.Pi)
			case 3:
				c.H(q)
			}
		}
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			c.CNOT(perm[i], perm[i+1])
		}
	}
	return c
}
