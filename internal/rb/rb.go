// Package rb implements single-qubit randomised benchmarking, the
// experimental workload the paper's superconducting control stack ran
// (§3.1: "we have been focusing on randomised bench-marking experiments
// for one or two qubits which was written in OpenQL"). Random Clifford
// sequences composed to the identity are executed on realistic qubits;
// the exponential decay of the survival probability yields the average
// error per Clifford.
package rb

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/optimize"
	"repro/internal/quantum"
	"repro/internal/qx"
)

// Clifford is one element of the single-qubit Clifford group with a
// canonical gate decomposition over {h, s}.
type Clifford struct {
	Gates  []string // registry gate names, applied in order
	Matrix quantum.Matrix
}

// Group returns the 24 single-qubit Cliffords generated by H and S via
// breadth-first search, each with a shortest {h,s} decomposition.
func Group() []Clifford {
	type node struct {
		gates []string
		m     quantum.Matrix
	}
	canon := func(m quantum.Matrix) string {
		// Phase-invariant fingerprint: normalise by the first
		// significant entry, then round (mapping −0 to +0 so the text
		// form is canonical).
		var ref complex128
		for _, v := range m.Data {
			if realAbs(v) > 1e-6 {
				ref = v
				break
			}
		}
		s := ""
		for _, v := range m.Data {
			w := v / ref
			re := math.Round(real(w)*1e6) / 1e6
			im := math.Round(imag(w)*1e6) / 1e6
			if re == 0 {
				re = 0
			}
			if im == 0 {
				im = 0
			}
			s += fmt.Sprintf("%.6f,%.6f;", re, im)
		}
		return s
	}
	start := node{gates: nil, m: quantum.Identity(2)}
	seen := map[string]bool{canon(start.m): true}
	queue := []node{start}
	var out []Clifford
	out = append(out, Clifford{Gates: nil, Matrix: start.m})
	gens := map[string]quantum.Matrix{"h": quantum.H, "s": quantum.S}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, gname := range []string{"h", "s"} {
			nm := gens[gname].Mul(cur.m)
			key := canon(nm)
			if seen[key] {
				continue
			}
			seen[key] = true
			gates := append(append([]string(nil), cur.gates...), gname)
			out = append(out, Clifford{Gates: gates, Matrix: nm})
			queue = append(queue, node{gates: gates, m: nm})
		}
	}
	return out
}

func realAbs(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}

// findInverse returns the group element whose matrix inverts m (up to
// global phase).
func findInverse(group []Clifford, m quantum.Matrix) (Clifford, error) {
	inv := m.Dagger()
	for _, c := range group {
		if c.Matrix.EqualUpToPhase(inv, 1e-8) {
			return c, nil
		}
	}
	return Clifford{}, fmt.Errorf("rb: inverse not found (group incomplete)")
}

// Sequence builds an m-Clifford RB circuit on one qubit: m random
// Cliffords, the recovery Clifford restoring the identity, and a final
// measurement.
func Sequence(group []Clifford, m int, rng *rand.Rand) (*circuit.Circuit, error) {
	c := circuit.New(fmt.Sprintf("rb_m%d", m), 1)
	net := quantum.Identity(2)
	for i := 0; i < m; i++ {
		cl := group[rng.Intn(len(group))]
		for _, g := range cl.Gates {
			c.Add(g, []int{0})
		}
		net = cl.Matrix.Mul(net)
	}
	rec, err := findInverse(group, net)
	if err != nil {
		return nil, err
	}
	for _, g := range rec.Gates {
		c.Add(g, []int{0})
	}
	c.Measure(0)
	return c, nil
}

// Point is one RB data point.
type Point struct {
	M        int     // sequence length in Cliffords
	Survival float64 // fraction of shots returning |0>
}

// Run executes RB at each sequence length: seqs random sequences ×
// shots measurements, on the given (usually noisy) simulator.
func Run(sim *qx.Simulator, lengths []int, seqs, shots int, seed int64) ([]Point, error) {
	group := Group()
	if len(group) != 24 {
		return nil, fmt.Errorf("rb: clifford group has %d elements, want 24", len(group))
	}
	rng := rand.New(rand.NewSource(seed))
	points := make([]Point, 0, len(lengths))
	for _, m := range lengths {
		total := 0
		for s := 0; s < seqs; s++ {
			c, err := Sequence(group, m, rng)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(c, shots)
			if err != nil {
				return nil, err
			}
			total += res.Counts[0]
		}
		points = append(points, Point{M: m, Survival: float64(total) / float64(seqs*shots)})
	}
	return points, nil
}

// Fit extracts the depolarising parameter f from p(m) = A·f^m + B by
// Nelder–Mead least squares, returning f and the average error per
// Clifford r = (1−f)/2.
func Fit(points []Point) (f, errPerClifford float64) {
	obj := func(x []float64) float64 {
		a, ff, b := x[0], x[1], x[2]
		if ff < 0 || ff > 1 {
			return 1e9
		}
		var sse float64
		for _, p := range points {
			pred := a*math.Pow(ff, float64(p.M)) + b
			d := pred - p.Survival
			sse += d * d
		}
		return sse
	}
	res := optimize.NelderMead(obj, []float64{0.5, 0.99, 0.5}, optimize.NelderMeadOptions{MaxIter: 2000})
	f = res.X[1]
	return f, (1 - f) / 2
}
