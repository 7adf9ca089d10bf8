package loadgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/cqasm"
	"repro/internal/genome"
	"repro/internal/grover"
	"repro/internal/qaoa"
	"repro/internal/qec"
	"repro/internal/qubo"
)

// BuildClassCircuit materialises one variant of a workload circuit class
// as cQASM source text. Everything it draws comes from rng, so a variant
// is fully determined by its derived seed — the byte-reproducibility
// contract of the workload generator. The variant index additionally
// perturbs the circuit content (input-state prefixes, Grover targets,
// QAOA instances), so distinct variants key distinct compile-cache
// entries while repeated references to one variant are cache hits.
func BuildClassCircuit(class string, qubits, depth, variant int, rng *rand.Rand) (string, error) {
	var c *circuit.Circuit
	switch class {
	case "qft":
		c = circuit.QFT(qubits, true)
		c = withInputPrefix(fmt.Sprintf("qft%d_v%d", qubits, variant), qubits, variant, c)
	case "ghz":
		// Pure Clifford: qx.Dispatch sends these to the
		// stabilizer tableau, exercising the engine-dispatch mix.
		c = circuit.GHZ(qubits)
		c = withInputPrefix(fmt.Sprintf("ghz%d_v%d", qubits, variant), qubits, variant, c)
	case "random":
		c = circuit.RandomCircuit(qubits, depth, rng)
	case "grover":
		target := variant % (1 << uint(qubits))
		gc, err := grover.BuildCircuit(qubits, target, 0)
		if err != nil {
			return "", err
		}
		c = gc
	case "qaoa":
		c2, err := qaoaCircuit(qubits, depth, rng)
		if err != nil {
			return "", err
		}
		c = c2
	case "qec":
		sc, err := qec.NewSurfaceCode(qubits)
		if err != nil {
			return "", err
		}
		// The cycle circuit measures ancillas and data itself; the
		// variant-keyed X prefix on data qubits injects distinct error
		// patterns (still Clifford), keeping variants distinct.
		c = withInputPrefix(fmt.Sprintf("qec_d%d_v%d", qubits, variant), sc.NumDataQubits(), variant, sc.CycleCircuit())
		return cqasm.PrintCircuit(c), nil
	case "genome":
		c = genomeCircuit(qubits, rng)
	default:
		return "", fmt.Errorf("loadgen: unknown circuit class %q", class)
	}
	c.MeasureAll()
	return cqasm.PrintCircuit(c), nil
}

// withInputPrefix rebuilds a circuit with an X-gate input-state prefix
// keyed by the variant bits on the first prefixQubits qubits, so variants
// of structurally identical circuits hash — and therefore cache —
// distinctly.
func withInputPrefix(name string, prefixQubits, variant int, c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(name, c.NumQubits)
	for q := 0; q < prefixQubits && q < 62; q++ {
		if variant&(1<<uint(q)) != 0 {
			out.X(q)
		}
	}
	for _, g := range c.Gates {
		out.Gates = append(out.Gates, g)
	}
	return out
}

// qaoaCircuit draws a random QUBO instance of n variables (each
// upper-triangular coefficient present with probability ½) and builds
// the depth-layer QAOA circuit with rng-drawn angles.
func qaoaCircuit(n, layers int, rng *rand.Rand) (*circuit.Circuit, error) {
	q := randomQUBO(n, rng)
	gammas := make([]float64, layers)
	betas := make([]float64, layers)
	for l := 0; l < layers; l++ {
		gammas[l] = rng.Float64() * 2 * math.Pi
		betas[l] = rng.Float64() * math.Pi
	}
	return qaoa.FromQUBO(q).BuildCircuit(gammas, betas)
}

// randomQUBO draws a dense-ish random QUBO on n variables with
// coefficients in [−1, 1).
func randomQUBO(n int, rng *rand.Rand) *qubo.QUBO {
	q := qubo.New(n)
	for i := 0; i < n; i++ {
		q.Add(i, i, rng.Float64()*2-1)
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.5 {
				q.Add(i, j, rng.Float64()*2-1)
			}
		}
	}
	return q
}

// genomeCircuit is the gate-level proxy for the paper's genome-alignment
// workload (§2.3): a read drawn from a random reference is 2-bit encoded
// onto a data register, an index register is put in uniform superposition
// (the "superposed quantum database" address lines) and entangled with
// the data register, and everything is measured. The register is
// idx + 2·readLen qubits for a total of the requested width.
func genomeCircuit(qubits int, rng *rand.Rand) *circuit.Circuit {
	idxBits := 3
	if qubits < 7 {
		idxBits = 1
	}
	readLen := (qubits - idxBits) / 2
	if readLen < 1 {
		readLen = 1
	}
	n := idxBits + 2*readLen
	read := genome.GenerateDNA(readLen, rng)
	code, err := genome.EncodeSequence(read)
	if err != nil {
		// GenerateDNA only emits ACGT; unreachable.
		panic(err)
	}
	c := circuit.New(fmt.Sprintf("genome_l%d", readLen), n)
	for i := 0; i < idxBits; i++ {
		c.H(i)
	}
	for b := 0; b < 2*readLen; b++ {
		if code&(1<<uint(b)) != 0 {
			c.X(idxBits + b)
		}
	}
	// Entangle address lines with the data register — the recall step of
	// the associative-memory model, gate-level.
	for b := 0; b < 2*readLen; b++ {
		c.CNOT(b%idxBits, idxBits+b)
	}
	return c
}

// sessionAnsatz builds the parametric QAOA ansatz a bind-storm phase
// opens sessions over: a deterministic random QUBO instance with
// symbolic $gamma{l}/$beta{l} angles surviving compilation into the
// artefact's bind table. Returns the cQASM text and the sorted symbol
// names binds must supply.
func sessionAnsatz(qubits, layers int, rng *rand.Rand) (string, []string, error) {
	q := randomQUBO(qubits, rng)
	c, err := qaoa.FromQUBO(q).BuildParametricCircuit(layers)
	if err != nil {
		return "", nil, err
	}
	c.MeasureAll()
	symbols := make([]string, 0, 2*layers)
	for l := 0; l < layers; l++ {
		symbols = append(symbols, fmt.Sprintf("beta%d", l), fmt.Sprintf("gamma%d", l))
	}
	return cqasm.PrintCircuit(c), symbols, nil
}
