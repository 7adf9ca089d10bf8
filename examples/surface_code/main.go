// Surface-code example: circuit-level error-syndrome measurement on the
// stabilizer tableau engine — the regime the Clifford fast path opens.
// A skewed device calibration (a few "hot" qubits an order of magnitude
// worse than the rest) is folded into a stochastic Pauli noise model,
// and one ESM round of the rotated planar code is Monte-Carlo'd at
// distances 3, 5 and 7. Distance 7 needs 73 simulated qubits (49 data +
// 24 Z-ancillas) — far beyond any dense state-vector budget, yet the
// tableau engine runs thousands of shots in milliseconds. The logical
// error rate falling with distance (below threshold) is the paper's
// §2.1 argument for why ESM dominates a fault-tolerant machine's
// workload.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/qec"
	"repro/internal/qx"
	"repro/internal/target"
)

func main() {
	// Two calibration scenarios for a 17-qubit device: the nominal table
	// everywhere at 2% single-qubit error, and a skewed one where three
	// hot qubits degrade to 12% — the averaged physical error rate the
	// noise model derives is what the code has to fight.
	const n = 17
	nominal := target.Perfect(n)
	nominal.Calibration = target.Uniform(n, nil, target.QubitCalibration{SingleQubitError: 0.02}, 0)

	skewed := target.Perfect(n)
	skewed.Calibration = target.Uniform(n, nil, target.QubitCalibration{SingleQubitError: 0.02}, 0)
	for _, hot := range []int{2, 9, 14} {
		skewed.Calibration.Qubits[hot].SingleQubitError = 0.12
	}

	scenarios := []struct {
		name string
		dev  *target.Device
	}{{"nominal", nominal}, {"skewed", skewed}}

	fmt.Println("circuit-level surface-code ESM on the stabilizer engine")
	fmt.Println("logical X error rate per round (8000 shots):")
	fmt.Printf("%-10s %-8s %-8s %-10s\n", "scenario", "p_phys", "distance", "p_logical")
	for _, sc := range scenarios {
		noise := core.NoiseFromDevice(sc.dev)
		if noise == nil {
			log.Fatal("no noise model derived from calibration")
		}
		p := noise.DepolarizingProb
		for _, d := range []int{3, 5, 7} {
			code, err := qec.NewSurfaceCode(d)
			if err != nil {
				log.Fatal(err)
			}
			rate, err := code.CircuitLogicalErrorRate(qx.Stabilizer(), p, 8000, int64(10*d))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s %-8.4f d=%-6d %-10.5f (%d qubits simulated)\n",
				sc.name, p, d, rate, code.CycleCircuit().NumQubits)
		}
	}

	// Engine dispatch makes the same choice without being told: the ESM
	// circuit is pure Clifford and the derived noise is stochastic Pauli,
	// so dispatch lands on the tableau.
	code, _ := qec.NewSurfaceCode(7)
	eng := qx.Dispatch(code.CycleCircuit(), core.NoiseFromDevice(skewed))
	fmt.Printf("\nauto-dispatch for the d=7 ESM round: %s\n", eng.Name())
}
