// Quickstart: the full stack in one page. An OpenQL program is compiled
// to cQASM, executed on perfect qubits (application development mode,
// Fig 2b) and then on the realistic superconducting stack through eQASM
// and the micro-architecture (Fig 2a) — the paper's two directions over
// one toolchain.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/openql"
)

func main() {
	// 1. Write the application's quantum logic in the OpenQL layer.
	program := openql.NewProgram("bell", 2)
	kernel := openql.NewKernel("entangle", 2)
	kernel.H(0).CNOT(0, 1).Measure(0).Measure(1)
	program.AddKernel(kernel)

	fmt.Println("=== cQASM (the common assembly of the stack) ===")
	fmt.Println(program.CQASM())

	// 2. Perfect qubits: verify the algorithm's logic (Fig 2b).
	perfect := core.NewPerfect(2, 42)
	rep, err := perfect.Execute(program, 2048)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Perfect qubits (QX simulator) ===")
	fmt.Print(rep.Result.Histogram())

	// 3. Realistic qubits: the same program through the experimental
	// stack — compiler → eQASM → micro-architecture → noisy QX (Fig 2a).
	sc := core.NewSuperconducting(42)
	compiled, err := sc.Compile(program)
	if err != nil {
		log.Fatal(err)
	}
	rep2, err := sc.RunCompiled(compiled, program.NumQubits, 2048, sc.Seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Realistic qubits (superconducting stack) ===")
	fmt.Print(rep2.Result.Histogram())
	fmt.Printf("mapping: %d SWAPs inserted (Surface-17 NN constraint)\n", rep2.Mapping.AddedSwaps)
	fmt.Printf("timing: %d ns per shot, %d pulses\n", rep2.Trace.TotalNs, len(rep2.Trace.Pulses))
	fmt.Println("\n=== eQASM (executable assembly) ===")
	fmt.Println(compiled.EQASM.String())
}
