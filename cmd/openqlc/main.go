// Command openqlc is the quantum compiler driver: it reads cQASM and runs
// the pass-manager pipeline — decompose to a device's primitive gate set,
// optimise, map to the qubit-plane topology (hop-count or noise-aware),
// lower routing SWAPs, schedule, assemble — emitting cQASM or eQASM, with
// a per-pass report of wall time, gate count and depth. The §2.4 compiler
// flow as a tool.
//
// Usage:
//
//	openqlc [-platform name] [-target device.json] [-calibration cal.json]
//	        [-emit cqasm|eqasm] [-passes spec] file.cq
//
// The compilation target is a device description: one of the built-in
// presets (-platform perfect|superconducting|semiconducting) or a device
// JSON file (-target; see examples/devices/ for the schema — topology,
// native gates, timings and the calibration table). -calibration overlays
// a fresh calibration JSON onto the chosen device, which is how
// noise-aware passes see up-to-date error rates.
//
// The -passes spec is the whole compiler configuration: it selects the
// pipeline from the built-in passes, with per-pass options. Empty runs
// the default flow, "decompose,optimize,map,lower-swaps,optimize-lowered,
// schedule,assemble". Dropping "optimize" skips the peephole optimiser,
// map(lookahead=8) turns on lookahead routing, map(strategy=noise) routes
// around lossy couplers using the device calibration, and
// schedule(policy=alap) schedules as late as possible. The spec must
// include "schedule", and "assemble" after it when emitting eQASM. For
// calibrated devices the report includes the routed circuit's expected
// success probability.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/compiler"
	"repro/internal/cqasm"
	"repro/internal/openql"
	"repro/internal/target"
)

func main() {
	platformName := flag.String("platform", "superconducting",
		"target device preset: "+strings.Join(target.PresetNames(), ", "))
	targetPath := flag.String("target", "", "device JSON file (overrides -platform; see examples/devices/)")
	calibPath := flag.String("calibration", "", "calibration JSON file overlaid onto the device")
	emit := flag.String("emit", "cqasm", "output format: cqasm or eqasm")
	passes := flag.String("passes", "",
		"comma-separated pass pipeline with optional per-pass options, e.g. "+
			`"decompose,map(lookahead=8,strategy=noise),lower-swaps,schedule(policy=alap)" `+
			"(default: "+compiler.DefaultPassSpec+"; available: "+
			strings.Join(compiler.PassNames(), ", ")+")")
	stats := flag.Bool("stats", true, "print per-pass compilation statistics to stderr")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: openqlc [flags] file.cq")
		flag.Usage()
		os.Exit(2)
	}
	// eQASM emission needs the assemble pass, which only runs for
	// realistic targets.
	var mode openql.QubitMode
	switch *emit {
	case "cqasm":
		mode = openql.PerfectQubits
	case "eqasm":
		mode = openql.RealisticQubits
	default:
		fatal(fmt.Errorf("unknown emit format %q (available: cqasm, eqasm)", *emit))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	c, err := cqasm.ParseToCircuit(string(src))
	if err != nil {
		fatal(err)
	}

	dev, err := loadDevice(*targetPath, *platformName, *calibPath, c.NumQubits)
	if err != nil {
		fatal(err)
	}
	platform := compiler.PlatformFor(dev)

	prog := openql.ProgramFromCircuit(circuitName(c.Name, flag.Arg(0)), c)
	compiled, err := prog.Compile(openql.CompileOptions{
		Mode:   mode,
		Target: dev,
		Passes: *passes,
	})
	if err != nil {
		fatal(err)
	}

	if *stats {
		fmt.Fprintf(os.Stderr, "target: %s (%d qubits, hash %s)\n",
			dev.Name, dev.NumQubits, dev.Hash()[:12])
		fmt.Fprint(os.Stderr, compiled.Report.String())
		if compiled.MapResult != nil {
			fmt.Fprintf(os.Stderr, "mapping: %d swaps inserted, latency factor %.2f\n",
				compiled.MapResult.AddedSwaps, compiled.MapResult.LatencyFactor)
		}
		fmt.Fprintf(os.Stderr, "schedule: %d gates, makespan %d cycles (%d ns)\n",
			len(compiled.Schedule.Gates), compiled.Schedule.Makespan,
			compiled.Schedule.Makespan*platform.CycleTimeNs)
		if dev.Calibration != nil {
			fmt.Fprintf(os.Stderr, "expected success probability: %.4f\n",
				compiler.ExpectedSuccess(compiled.Circuit, platform))
		}
	}

	if mode == openql.RealisticQubits {
		fmt.Print(compiled.EQASM.String())
	} else {
		fmt.Print(compiled.CQASM())
	}
}

// loadDevice resolves the compilation target: a device JSON file when
// given, else the named preset (perfect sized to the circuit), with an
// optional calibration overlay.
func loadDevice(targetPath, preset, calibPath string, circuitQubits int) (*target.Device, error) {
	var dev *target.Device
	var err error
	switch {
	case targetPath != "":
		dev, err = target.LoadFile(targetPath)
	case preset == "perfect":
		dev = target.Perfect(circuitQubits)
	default:
		dev, err = target.Preset(preset)
	}
	if err != nil {
		return nil, err
	}
	return target.OverlayCalibrationFile(dev, calibPath)
}

// circuitName labels the program after its source: the circuit name when
// the cQASM declared one, else the input file.
func circuitName(name, path string) string {
	if name != "" && name != "cqasm" {
		return name
	}
	return strings.TrimSuffix(path, ".cq")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "openqlc:", err)
	os.Exit(1)
}
