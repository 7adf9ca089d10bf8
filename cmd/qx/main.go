// Command qx executes cQASM files on the QX simulator with perfect or
// realistic qubits, mirroring the execution layer of the paper's stack.
//
// Usage:
//
//	qx [-shots N] [-seed S] [-parallel W] [-passes spec]
//	   [-target device.json] [-calibration cal.json]
//	   [-depolarizing P] [-readout P] [-state] file.cq
//
// Execution runs on the auto engine: Clifford circuits under
// tableau-compatible noise go to the stabilizer engine — polynomial in
// qubit count, opening 100+ qubit circuits — and everything else, and
// every -state run, to the dense optimized engine. The mode line names
// the engine that runs.
//
// With -passes the circuit first runs through the compiler pass pipeline
// and the per-pass report — wall time, gate count, depth — is printed to
// stderr before execution; without it the circuit executes as written.
// With -target the circuit compiles against the given device description
// (topology, native gates, calibration; see examples/devices/), the
// default pipeline is used when -passes is empty, and the simulator's
// noise model is derived from the device calibration unless
// -depolarizing/-readout override it explicitly. -calibration overlays a
// fresh calibration JSON onto the device (or, without -target, onto an
// all-to-all perfect device of the circuit's size).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cqasm"
	"repro/internal/openql"
	"repro/internal/qx"
	"repro/internal/target"
)

func main() {
	shots := flag.Int("shots", 1024, "number of measurement shots")
	seed := flag.Int64("seed", 1, "PRNG seed")
	parallel := flag.Int("parallel", 0,
		"shot-batch workers (>1 fans shots across goroutines; 0/1 serial)")
	passes := flag.String("passes", "",
		"compile through this pass pipeline before executing (available: "+
			strings.Join(compiler.PassNames(), ", ")+"); empty runs the circuit as written")
	targetPath := flag.String("target", "",
		"device JSON file: compile for this device and derive noise from its calibration")
	calibPath := flag.String("calibration", "",
		"calibration JSON overlaid onto the device (or onto a perfect all-to-all device without -target)")
	depol := flag.Float64("depolarizing", 0, "per-gate depolarizing probability (realistic qubits)")
	readout := flag.Float64("readout", 0, "readout flip probability")
	showState := flag.Bool("state", false, "print the final state vector (perfect, measurement-free circuits)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qx [flags] file.cq")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	c, err := cqasm.ParseToCircuit(string(src))
	if err != nil {
		fatal(err)
	}

	// Resolve the compilation device: -target file, or a perfect device
	// when only -calibration / -passes is given.
	var dev *target.Device
	if *targetPath != "" {
		if dev, err = target.LoadFile(*targetPath); err != nil {
			fatal(err)
		}
	}
	if *calibPath != "" {
		if dev == nil {
			dev = target.Perfect(c.NumQubits)
		}
		if dev, err = target.OverlayCalibrationFile(dev, *calibPath); err != nil {
			fatal(err)
		}
	}

	if *passes != "" || dev != nil {
		opts := openql.CompileOptions{Mode: openql.PerfectQubits, Passes: *passes}
		if dev != nil {
			opts.Target = dev
		} else {
			opts.Platform = compiler.Perfect(c.NumQubits)
		}
		prog := openql.ProgramFromCircuit("qx", c)
		compiled, err := prog.Compile(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(os.Stderr, compiled.Report.String())
		if dev != nil && dev.Calibration != nil {
			fmt.Fprintf(os.Stderr, "expected success probability: %.4f\n",
				compiler.ExpectedSuccess(compiled.Circuit, compiler.PlatformFor(dev)))
		}
		c = compiled.Circuit
	}
	// Noise model: explicit flags win; otherwise derive from the device
	// calibration when one is present.
	var noise *qx.NoiseModel
	switch {
	case *depol > 0 || *readout > 0:
		noise = qx.Depolarizing(*depol)
		noise.ReadoutError = *readout
	case dev != nil && dev.Calibration != nil:
		noise = core.NoiseFromDevice(dev)
	}

	// The engine auto runs: its dispatch target, or the dense engine
	// for a state vector.
	engine := qx.Auto().(qx.Dispatcher).Dispatch(c, noise)
	if *showState {
		engine = qx.Optimized()
	}
	var sim *qx.Simulator
	if noise != nil && !noise.IsZero() {
		sim = qx.NewNoisy(*seed, noise)
		fmt.Printf("mode: realistic qubits (depolarizing %.2g, 2q %.2g, readout %.2g), engine %s\n",
			noise.DepolarizingProb, noise.TwoQubitDepolarizingProb, noise.ReadoutError, engine.Name())
	} else {
		sim = qx.New(*seed)
		fmt.Printf("mode: perfect qubits, engine %s\n", engine.Name())
	}

	if *showState {
		st, err := sim.RunState(c)
		if err != nil {
			fatal(err)
		}
		fmt.Println(st)
		return
	}
	var res *qx.Result
	if *parallel > 1 {
		res, err = sim.RunParallel(c, *shots, *parallel)
	} else {
		res, err = sim.Run(c, *shots)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("qubits: %d, gates: %d, shots: %d\n", c.NumQubits, c.GateCount(), res.Shots)
	fmt.Print(res.Histogram())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qx:", err)
	os.Exit(1)
}
