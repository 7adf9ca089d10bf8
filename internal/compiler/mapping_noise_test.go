package compiler

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cqasm"
	"repro/internal/target"
)

// sameGates reports gate-for-gate equality of two circuits.
func sameGates(a, b *circuit.Circuit) bool {
	if len(a.Gates) != len(b.Gates) || a.NumQubits != b.NumQubits {
		return false
	}
	for i := range a.Gates {
		ga, gb := a.Gates[i], b.Gates[i]
		if ga.Name != gb.Name || len(ga.Qubits) != len(gb.Qubits) ||
			ga.HasCond != gb.HasCond || ga.CondBit != gb.CondBit ||
			len(ga.Params) != len(gb.Params) {
			return false
		}
		for j := range ga.Qubits {
			if ga.Qubits[j] != gb.Qubits[j] {
				return false
			}
		}
		for j := range ga.Params {
			if ga.Params[j] != gb.Params[j] {
				return false
			}
		}
	}
	return true
}

// randomNISQCircuit builds a routable circuit: cz/single-qubit gates
// plus measurement, over the platform's native set.
func randomNISQCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("rand", n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(4) {
		case 0:
			c.Add("x90", []int{rng.Intn(n)})
		case 1:
			c.Add("rz", []int{rng.Intn(n)}, rng.Float64())
		default:
			a := rng.Intn(n)
			b := rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.Add("cz", []int{a, b})
		}
	}
	c.MeasureAll()
	return c
}

// On a uniform calibration — no routing signal — the noise-aware mapper
// must produce gate-for-gate the same artefacts as the hop-count mapper,
// over randomized circuits, placements and lookahead settings.
func TestMapNoiseDegeneratesToHopOnUniformCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Superconducting() // uniform preset calibration
	if p.Calibration() == nil || !p.Calibration().UniformEdges(p.Topology) {
		t.Fatal("superconducting preset should carry a uniform calibration")
	}
	for i := 0; i < 25; i++ {
		c := randomNISQCircuit(rng, 8, 30)
		opts := MapOptions{
			Lookahead:       i%2 == 0,
			LookaheadWindow: 1 + i%7,
		}
		if i%3 == 0 {
			opts.Placement = GreedyPlacement
		}
		hop, err := MapCircuit(c, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		noise, err := MapCircuitNoise(c, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGates(hop.Circuit, noise.Circuit) {
			t.Fatalf("iteration %d: uniform calibration routed differently\nhop:\n%s\nnoise:\n%s",
				i, hop.Circuit, noise.Circuit)
		}
		if hop.AddedSwaps != noise.AddedSwaps {
			t.Fatalf("iteration %d: swaps differ %d vs %d", i, hop.AddedSwaps, noise.AddedSwaps)
		}
	}
}

// lossySurface17 is the Surface-17 device with one deliberately lossy
// coupler: edge (0,9), which lies on the hop router's 0→1 path.
func lossySurface17(edgeErr float64) *Platform {
	dev := target.Superconducting()
	dev.Calibration.SetEdgeError(0, 9, edgeErr)
	return PlatformFor(dev)
}

// touchesEdge reports whether any two-qubit gate of the circuit acts
// across the (a,b) pair.
func touchesEdge(c *circuit.Circuit, a, b int) bool {
	for _, g := range c.Gates {
		if !g.IsTwoQubit() {
			continue
		}
		if (g.Qubits[0] == a && g.Qubits[1] == b) || (g.Qubits[0] == b && g.Qubits[1] == a) {
			return true
		}
	}
	return false
}

// Acceptance: on a Surface-17 device with one deliberately lossy edge,
// the noise-aware router routes around that edge while the hop-count
// router (which is blind to calibration) crosses it, and the noise-aware
// routing wins on expected success probability.
func TestMapNoiseRoutesAroundLossyEdge(t *testing.T) {
	p := lossySurface17(0.25)
	c := circuit.New("cz01", 17)
	c.Add("cz", []int{0, 1}) // distance 2: via ancilla 9 (lossy) or 11

	hop, err := MapCircuit(c, p, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noise, err := MapCircuitNoise(c, p, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !touchesEdge(hop.Circuit, 0, 9) {
		t.Fatalf("hop router did not cross the lossy edge — test premise broken:\n%s", hop.Circuit)
	}
	if touchesEdge(noise.Circuit, 0, 9) {
		t.Fatalf("noise-aware router crossed the lossy (0,9) edge:\n%s", noise.Circuit)
	}
	espHop := ExpectedSuccess(hop.Circuit, p)
	espNoise := ExpectedSuccess(noise.Circuit, p)
	if espNoise <= espHop {
		t.Errorf("noise routing ESP %.4f does not beat hop routing ESP %.4f", espNoise, espHop)
	}
}

// Differential: across randomized circuits on randomly skewed
// calibrations, noise-aware routing must beat hop-count routing on
// expected success probability in aggregate, and never lose
// catastrophically.
func TestMapNoiseBeatsHopOnSkewedCalibrations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	wins, losses := 0, 0
	var logRatioSum float64
	const trials = 30
	for i := 0; i < trials; i++ {
		dev := target.Superconducting()
		// Skew: every edge gets a random error over two orders of
		// magnitude, so routing choices matter.
		for j := range dev.Calibration.Edges {
			dev.Calibration.Edges[j].TwoQubitError = math.Pow(10, -3+2.5*rng.Float64())
		}
		p := PlatformFor(dev)
		c := randomNISQCircuit(rng, 9, 40)
		hop, err := MapCircuit(c, p, MapOptions{Lookahead: true})
		if err != nil {
			t.Fatal(err)
		}
		noise, err := MapCircuitNoise(c, p, MapOptions{Lookahead: true})
		if err != nil {
			t.Fatal(err)
		}
		espHop := ExpectedSuccess(hop.Circuit, p)
		espNoise := ExpectedSuccess(noise.Circuit, p)
		logRatioSum += math.Log(espNoise / espHop)
		switch {
		case espNoise > espHop:
			wins++
		case espNoise < espHop:
			losses++
		}
	}
	if wins <= losses {
		t.Errorf("noise routing won %d and lost %d of %d skewed trials", wins, losses, trials)
	}
	if logRatioSum <= 0 {
		t.Errorf("mean ESP log-ratio %.4f not positive: noise routing does not beat hop routing in aggregate",
			logRatioSum/trials)
	}
}

// map(strategy=noise) produces identical pipeline artefacts to map on
// uniform calibrations.
func TestMapNoisePassPipelineEquivalence(t *testing.T) {
	p := Superconducting()
	rng := rand.New(rand.NewSource(3))
	c := randomNISQCircuit(rng, 6, 24)
	run := func(spec string) (*PassContext, *CompileReport) {
		pl, err := NewPipeline(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &PassContext{Platform: p, Circuit: c.Clone()}
		rep, err := pl.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return ctx, rep
	}
	base, _ := run("decompose,map,lower-swaps,schedule")
	noise, _ := run("decompose,map(strategy=noise),lower-swaps,schedule")
	if !sameGates(base.Circuit, noise.Circuit) {
		t.Error("map(strategy=noise) on uniform calibration differs from map")
	}
	if base.Schedule.Makespan != noise.Schedule.Makespan {
		t.Errorf("makespans differ: %d vs %d", base.Schedule.Makespan, noise.Schedule.Makespan)
	}
}

// ExpectedSuccess multiplies per-gate success under the calibration.
func TestExpectedSuccess(t *testing.T) {
	dev := target.Superconducting()
	p := PlatformFor(dev)
	c := circuit.New("esp", 17)
	c.Add("x90", []int{0})
	c.Add("cz", []int{0, 9})
	c.Add("swap", []int{0, 9})
	c.Measure(0)
	want := (1 - 1e-3) * (1 - 5e-3) * math.Pow(1-5e-3, 3) * (1 - 0.01)
	if got := ExpectedSuccess(c, p); math.Abs(got-want) > 1e-12 {
		t.Errorf("ESP = %.9f, want %.9f", got, want)
	}
	if got := ExpectedSuccess(c, Perfect(17)); got != 1 {
		t.Errorf("uncalibrated ESP = %g, want 1", got)
	}
}

// routerDigest hashes everything a router hands downstream: the routed
// cQASM, the initial and final layouts, the SWAP count and the
// measure-time bindings (in logical order).
func routerDigest(h io.Writer, mr *MapResult) {
	fmt.Fprintf(h, "%s\ninit=%v\nfinal=%v\nswaps=%d\n",
		cqasm.PrintCircuit(mr.Circuit), mr.InitialLayout, mr.FinalLayout, mr.AddedSwaps)
	for l := 0; l < len(mr.MeasurePhys); l++ {
		fmt.Fprintf(h, "m%d=%d\n", l, mr.MeasurePhys[l])
	}
}

// Both routers are pinned byte-for-byte over the skewed-calibration
// corpus of TestMapNoiseBeatsHopOnSkewedCalibrations, under each
// routing configuration: any change to placement, SWAP choice or the
// measurement bindings shows up as a digest mismatch.
func TestMapRouterDigests(t *testing.T) {
	configs := []struct {
		name       string
		opts       MapOptions
		hop, noise string
	}{
		{"lookahead-off", MapOptions{},
			"f5f2ab0add32a1d1e70b2dc4ea41e0343bb09d16186a1f234d29395d3980de15",
			"6d94f136345a5fc9a5e22729ebdfecd214d0709cf3b55a02a11c01b2017a1a60"},
		{"lookahead-on", MapOptions{Lookahead: true},
			"b6936b0872dc4c7d35cb23b5575971c80e46e057ddb9e0a6bee90a012c8d2e50",
			"eb90ea6f3e3b2b6b40d5974ab0c2e224513574edf15c61a9f0bea591f5ae5417"},
		{"window-3", MapOptions{Lookahead: true, LookaheadWindow: 3},
			"3023eb4840802a8999d0d33c242acdef5bfcaeb1dc8a2a1614489d5ec8567175",
			"4e82a6e4e9f3860888add0a0c8a82b6c387c703fa07188bda592f8d366cb5d38"},
		{"greedy", MapOptions{Placement: GreedyPlacement},
			"486cccde1b0aca78fdbd7f12414984d2c707eef323baf5b4067ba1047470cb4c",
			"bb400d2da698e18c0e634e733c392689bf32c7924415160415be903f5bbfb4b0"},
	}
	for _, cfg := range configs {
		rng := rand.New(rand.NewSource(11))
		hopSum, noiseSum := sha256.New(), sha256.New()
		for i := 0; i < 30; i++ {
			dev := target.Superconducting()
			for j := range dev.Calibration.Edges {
				dev.Calibration.Edges[j].TwoQubitError = math.Pow(10, -3+2.5*rng.Float64())
			}
			p := PlatformFor(dev)
			c := randomNISQCircuit(rng, 9, 40)
			h, err := MapCircuit(c, p, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			n, err := MapCircuitNoise(c, p, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			routerDigest(hopSum, h)
			routerDigest(noiseSum, n)
		}
		if got := hex.EncodeToString(hopSum.Sum(nil)); got != cfg.hop {
			t.Errorf("%s: MapCircuit digest %s, want %s", cfg.name, got, cfg.hop)
		}
		if got := hex.EncodeToString(noiseSum.Sum(nil)); got != cfg.noise {
			t.Errorf("%s: MapCircuitNoise digest %s, want %s", cfg.name, got, cfg.noise)
		}
	}
}
