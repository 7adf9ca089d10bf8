// Benchmark harness: one benchmark per figure and quantitative claim of
// the paper (experiment ids E1–E15, see DESIGN.md §4). Each benchmark
// both times the relevant pipeline (b.N loop) and, once, prints the
// series/rows the paper reports so EXPERIMENTS.md can be regenerated:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/algo"
	"repro/internal/anneal"
	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cqasm"
	"repro/internal/embed"
	"repro/internal/eqasm"
	"repro/internal/genome"
	"repro/internal/grover"
	"repro/internal/microarch"
	"repro/internal/openql"
	"repro/internal/qaoa"
	"repro/internal/qec"
	"repro/internal/qserv"
	"repro/internal/qubo"
	"repro/internal/qx"
	"repro/internal/rb"
	"repro/internal/target"
	"repro/internal/topology"
	"repro/internal/tsp"
)

var printOnce sync.Map

// report prints a table once per benchmark name, regardless of b.N
// re-runs. Sub-benchmark rows accumulate across the framework's
// calibration re-runs, so duplicate lines are folded while preserving
// order.
func report(name, text string) {
	if _, loaded := printOnce.LoadOrStore(name, true); loaded {
		return
	}
	seen := map[string]bool{}
	var out []string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !seen[line] {
			seen[line] = true
			out = append(out, line)
		}
	}
	fmt.Printf("\n--- %s ---\n%s\n", name, strings.Join(out, "\n"))
}

func bellProgram() *openql.Program {
	p := openql.NewProgram("bell", 2)
	p.AddKernel(openql.NewKernel("entangle", 2).H(0).CNOT(0, 1).Measure(0).Measure(1))
	return p
}

func ghzProgram(n int) *openql.Program {
	p := openql.NewProgram(fmt.Sprintf("ghz%d", n), n)
	k := openql.NewKernel("g", n).H(0)
	for q := 1; q < n; q++ {
		k.CNOT(q-1, q)
	}
	for q := 0; q < n; q++ {
		k.Measure(q)
	}
	p.AddKernel(k)
	return p
}

// E1 — Fig 1/Fig 3: heterogeneous host dispatching to quantum gate,
// quantum annealing and classical accelerators.
func BenchmarkE1_HeterogeneousOffload(b *testing.B) {
	host := accel.DefaultSystem(4, 1)
	q := qubo.New(4)
	q.Set(0, 0, -1)
	q.Set(0, 1, 2)
	prog := bellProgram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := host.Offload(accel.CircuitTask{Program: prog, Shots: 64}); err != nil {
			b.Fatal(err)
		}
		if _, err := host.Offload(accel.AnnealTask{Q: q}); err != nil {
			b.Fatal(err)
		}
		if _, err := host.Offload(accel.ClassicalTask{Name: "pre", F: func() (interface{}, error) { return 1, nil }}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	report("E1 heterogeneous offload", fmt.Sprintf(
		"accelerators: %v\ndispatches logged: %d\n", host.Accelerators(), len(host.Dispatches())))
}

// E2 — Fig 2: the same program on perfect vs realistic full stacks.
func BenchmarkE2_PerfectVsRealistic(b *testing.B) {
	prog := ghzProgram(4)
	var perfGood, realGood float64
	b.Run("perfect", func(b *testing.B) {
		stack := core.NewPerfect(4, 5)
		for i := 0; i < b.N; i++ {
			rep, err := stack.Execute(prog, 256)
			if err != nil {
				b.Fatal(err)
			}
			perfGood = float64(rep.Result.Counts[0]+rep.Result.Counts[15]) / 256
		}
		b.ReportMetric(perfGood, "fidelity")
	})
	b.Run("realistic", func(b *testing.B) {
		stack := core.NewSuperconducting(5)
		for i := 0; i < b.N; i++ {
			rep, err := stack.Execute(prog, 256)
			if err != nil {
				b.Fatal(err)
			}
			realGood = float64(rep.Result.Counts[0]+rep.Result.Counts[15]) / 256
		}
		b.ReportMetric(realGood, "fidelity")
	})
	report("E2 perfect vs realistic", fmt.Sprintf(
		"GHZ-4 correlated-outcome fraction: perfect %.3f, realistic %.3f\n", perfGood, realGood))
}

// E3 — Fig 4: the compiler pipeline from OpenQL program to eQASM.
func BenchmarkE3_CompilerPipeline(b *testing.B) {
	qft := circuit.QFT(6, true)
	prog := openql.NewProgram("qft6", 6)
	k := openql.NewKernel("qft", 6)
	for _, g := range qft.Gates {
		k.Gate(g.Name, g.Qubits, g.Params...)
	}
	prog.AddKernel(k)
	platform := compiler.Superconducting()
	var compiled *openql.Compiled
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compiled, err = prog.Compile(openql.CompileOptions{
			Mode:     openql.RealisticQubits,
			Platform: platform,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	report("E3 compiler pipeline", fmt.Sprintf(
		"QFT-6 → %d primitive gates, %d swaps, makespan %d cycles, %d eQASM instructions\n",
		len(compiled.Circuit.Gates), compiled.MapResult.AddedSwaps,
		compiled.Schedule.Makespan, len(compiled.EQASM.Instrs)))
}

// E4 — Fig 5/6: eQASM execution on the micro-architecture, with
// retargeting between the two microcode configurations.
func BenchmarkE4_MicroarchExec(b *testing.B) {
	group := rb.Group()
	rng := rand.New(rand.NewSource(3))
	seq, err := rb.Sequence(group, 16, rng)
	if err != nil {
		b.Fatal(err)
	}
	platform := compiler.Superconducting()
	dec, err := compiler.Decompose(seq, platform)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := compiler.ScheduleCircuit(compiler.Optimize(dec), platform, compiler.ASAP)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := eqasm.Assemble(sched, platform)
	if err != nil {
		b.Fatal(err)
	}
	var results string
	for _, cfg := range []*microarch.Config{microarch.SuperconductingConfig(), microarch.SemiconductingConfig()} {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			machine := microarch.New(cfg, qx.New(7))
			var tr *microarch.Trace
			for i := 0; i < b.N; i++ {
				rep, err := machine.Execute(prog, 32)
				if err != nil {
					b.Fatal(err)
				}
				tr = rep.Trace
			}
			b.ReportMetric(float64(tr.TotalNs), "ns/shot")
			results += fmt.Sprintf("%-16s %4d pulses %7d ns  mw-util %.2f\n",
				cfg.Name, len(tr.Pulses), tr.TotalNs, tr.Utilization(microarch.ChannelMicrowave))
		})
	}
	report("E4 micro-architecture execution", results)
}

// E5 — Fig 7: the genome pipeline (QAM alignment) end to end.
func BenchmarkE5_GenomePipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ref := genome.GenerateDNA(60, rng)
	aligner, err := genome.NewQuantumAligner(ref, 4)
	if err != nil {
		b.Fatal(err)
	}
	reads := genome.SampleReads(ref, 4, 16, 0.05, rng)
	var success float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok := 0
		for _, r := range reads {
			res, err := aligner.Align(r.Seq, 1)
			if err != nil {
				continue
			}
			if ref[res.Position:res.Position+4] == r.Seq || res.Mismatches <= 1 {
				ok++
			}
		}
		success = float64(ok) / float64(len(reads))
	}
	b.StopTimer()
	b.ReportMetric(success, "align-rate")
	report("E5 genome pipeline", fmt.Sprintf(
		"reference 60 bases, 16 noisy reads: quantum alignment rate %.2f (register %d qubits)\n",
		success, aligner.IndexBits+aligner.DataBits))
}

// E6 — Fig 8/§3.3: hybrid optimisation — QAOA and annealing on the same
// QUBO.
func BenchmarkE6_HybridOptimisation(b *testing.B) {
	q := qubo.New(6)
	for i := 0; i < 6; i++ {
		q.Set(i, i, -1)
		q.Set(i, (i+1)%6, 2.2)
	}
	_, optE := q.BruteForce()
	var qaoaE, sqaE float64
	b.Run("qaoa_p2", func(b *testing.B) {
		problem := qaoa.FromQUBO(q)
		for i := 0; i < b.N; i++ {
			res, err := qaoa.Solve(problem, qx.New(9), qaoa.Options{Layers: 2, Seed: 9, MaxIter: 80, GridSeeds: 4})
			if err != nil {
				b.Fatal(err)
			}
			qaoaE = q.Energy(res.BestBits)
		}
		b.ReportMetric(qaoaE, "energy")
	})
	b.Run("sqa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := anneal.SolveQUBOQuantum(q, anneal.SQAOptions{Seed: 9})
			sqaE = res.Energy
		}
		b.ReportMetric(sqaE, "energy")
	})
	report("E6 hybrid optimisation", fmt.Sprintf(
		"6-spin ring: exact %.3f, QAOA p=2 %.3f, SQA %.3f\n", optE, qaoaE, sqaE))
}

// E7 — Fig 9: the 4-city Netherlands TSP; every solver must find the
// 1.42 tour.
func BenchmarkE7_TSPFig9(b *testing.B) {
	g := tsp.Netherlands4()
	enc := tsp.Encode(g, 0)
	costOf := func(bits []int) float64 {
		tour, err := enc.Decode(bits)
		if err != nil {
			return math.Inf(1)
		}
		return g.TourCost(tour)
	}
	rows := ""
	b.Run("exact", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			_, cost = g.BruteForce()
		}
		b.ReportMetric(cost, "cost")
		rows += fmt.Sprintf("exact enumeration    %.4f\n", cost)
	})
	b.Run("sa", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			res := anneal.SolveQUBO(enc.Q, anneal.SAOptions{Sweeps: 2000, Restarts: 8, Seed: 7})
			cost = costOf(res.Bits)
		}
		b.ReportMetric(cost, "cost")
		rows += fmt.Sprintf("simulated annealing  %.4f\n", cost)
	})
	b.Run("sqa", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			res := anneal.SolveQUBOQuantum(enc.Q, anneal.SQAOptions{Sweeps: 1500, Trotter: 8, Restarts: 6, Seed: 7})
			cost = costOf(res.Bits)
		}
		b.ReportMetric(cost, "cost")
		rows += fmt.Sprintf("simulated quantum    %.4f\n", cost)
	})
	b.Run("digital", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			res := anneal.DigitalAnneal(enc.Q, anneal.DigitalAnnealerOptions{Steps: 30000, Seed: 7})
			cost = costOf(res.Bits)
		}
		b.ReportMetric(cost, "cost")
		rows += fmt.Sprintf("digital annealer     %.4f\n", cost)
	})
	report("E7 TSP Fig 9 (paper optimum 1.42, 16 qubits)", rows)
}

// E8 — §2.7: QX scaling with qubit count (the "35 fully-entangled qubits
// on a laptop" capacity claim; memory doubles per qubit).
func BenchmarkE8_QXScaling(b *testing.B) {
	rows := ""
	for _, n := range []int{10, 14, 18, 20, 22} {
		n := n
		b.Run(fmt.Sprintf("ghz%d", n), func(b *testing.B) {
			sim := qx.New(1)
			c := circuit.GHZ(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunState(c); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			amps := 1 << uint(n)
			rows += fmt.Sprintf("n=%2d  amplitudes %10d  state %8.1f MiB\n",
				n, amps, float64(amps)*16/(1<<20))
		})
	}
	// Extension rows: the same entangling workload on the stabilizer
	// tableau, where cost is polynomial in n — the curve stays flat
	// through the paper's 35-qubit laptop ceiling and far past it.
	for _, n := range []int{22, 35, 50, 100} {
		n := n
		b.Run(fmt.Sprintf("tableau_ghz%d", n), func(b *testing.B) {
			sim := qx.NewWithEngine(1, qx.Stabilizer())
			c := circuit.GHZ(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(c, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			words := (n + 63) / 64
			rows += fmt.Sprintf("n=%3d  tableau rows %4d × %d words  %8.1f KiB (stabilizer engine)\n",
				n, 2*n+1, words, float64((2*n+1)*words*16+2*n+1)/(1<<10))
		})
	}
	report("E8 QX scaling (dense state memory doubles per qubit; 35q ≈ 512 GiB server-class — tableau rows grow as n²)", rows)
}

// E24 — the stabilizer fast path (ISSUE 8): Clifford workloads (GHZ
// sampling, one circuit-level surface-code ESM round) on the tableau
// engine versus the dense optimized engine. Dense arms stop at 22
// qubits (cost doubles per qubit); the tableau continues to 100. The
// 22-qubit ratio is reported as stabilizer_vs_dense_pct and gated in CI
// by `benchgate -ceiling stabilizer_vs_dense_pct=1` — a ≥100x floor.
func BenchmarkStabilizerVsDense(b *testing.B) {
	const shots = 256
	surface := func(d int) *circuit.Circuit {
		sc, err := qec.NewSurfaceCode(d)
		if err != nil {
			b.Fatal(err)
		}
		return sc.CycleCircuit()
	}
	cases := []struct {
		name  string
		c     *circuit.Circuit
		dense bool
	}{
		{"ghz16", circuit.GHZ(16), true},
		{"ghz22", circuit.GHZ(22), true},
		{"ghz50", circuit.GHZ(50), false},
		{"ghz100", circuit.GHZ(100), false},
		{"surface_d3", surface(3), true},
		{"surface_d7", surface(7), false},
	}
	times := map[string]time.Duration{}
	rows := ""
	for _, tc := range cases {
		tc := tc
		arms := []struct {
			arm string
			eng qx.Engine
		}{{"stabilizer", qx.Stabilizer()}}
		if tc.dense {
			arms = append(arms, struct {
				arm string
				eng qx.Engine
			}{"dense", qx.Optimized()})
		}
		for _, a := range arms {
			a := a
			b.Run(tc.name+"/"+a.arm, func(b *testing.B) {
				sim := qx.NewWithEngine(1, a.eng)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sim.Run(tc.c, shots); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				perOp := b.Elapsed() / time.Duration(b.N)
				key := tc.name + "/" + a.arm
				if prev, ok := times[key]; !ok || perOp < prev {
					times[key] = perOp
				}
			})
		}
		row := fmt.Sprintf("%-11s %3d qubits  tableau %10.1f µs/batch", tc.name,
			tc.c.NumQubits, float64(times[tc.name+"/stabilizer"].Nanoseconds())/1e3)
		if tc.dense {
			row += fmt.Sprintf("  dense %12.1f µs/batch  speedup %8.1fx",
				float64(times[tc.name+"/dense"].Nanoseconds())/1e3,
				float64(times[tc.name+"/dense"])/float64(times[tc.name+"/stabilizer"]))
		} else {
			row += "  dense    (out of reach)"
		}
		rows += row + "\n"
	}
	// The gated ratio runs both arms inside one leaf benchmark so the
	// metric lands on a parsed result line (parents with sub-benchmarks
	// never emit one).
	b.Run("ghz22_ratio", func(b *testing.B) {
		c := circuit.GHZ(22)
		stab := qx.NewWithEngine(1, qx.Stabilizer())
		dense := qx.NewWithEngine(1, qx.Optimized())
		minStab := time.Duration(math.MaxInt64)
		minDense := time.Duration(math.MaxInt64)
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, err := dense.Run(c, shots); err != nil {
				b.Fatal(err)
			}
			minDense = min(minDense, time.Since(start))
			start = time.Now()
			if _, err := stab.Run(c, shots); err != nil {
				b.Fatal(err)
			}
			minStab = min(minStab, time.Since(start))
		}
		pct := 100 * float64(minStab) / float64(minDense)
		b.ReportMetric(pct, "stabilizer_vs_dense_pct")
		rows += fmt.Sprintf("ghz22 stabilizer_vs_dense_pct %.4f (ceiling 1 ⇒ floor 100x)\n", pct)
	})
	report(fmt.Sprintf("E24 stabilizer vs dense (%d-shot Clifford batches)", shots), rows)
}

// BenchmarkMeasuredShots times the optimized engine's perfect measured
// path against its measurement-free sampler on the same program: the
// stackbench sessions shape, a 6-qubit h·rz(kπ)·h layer, a cnot ladder
// and three phases, with and without a terminal measure per qubit. The
// outcome tree simulates each measurement history once, so the measured
// batch costs a small multiple of the sampled one instead of one full
// execution per shot. The ratio is reported as measured_vs_sampled_pct
// and gated in CI by `benchgate -ceiling measured_vs_sampled_pct=2000`.
func BenchmarkMeasuredShots(b *testing.B) {
	const n, shots = 6, 64
	sampled, measured := measuredAnsatz(n)
	minMeasured, minSampled := minBatchPair(b, measured, sampled, shots)
	pct := 100 * float64(minMeasured) / float64(minSampled)
	b.ReportMetric(pct, "measured_vs_sampled_pct")
	report(fmt.Sprintf("measured vs sampled shots (%d-qubit ansatz, %d shots, optimized engine)", n, shots),
		fmt.Sprintf("measured %8.1f µs/batch  sampled %8.1f µs/batch  measured_vs_sampled_pct %.1f (ceiling 2000)\n",
			float64(minMeasured.Nanoseconds())/1e3, float64(minSampled.Nanoseconds())/1e3, pct))
}

// BenchmarkEarlyMeasuredShots is BenchmarkMeasuredShots with qubit 0
// measured before any gate touches it — the shape ASAP scheduling gives
// eQASM, where a snapshot of the unitary prefix would cover nothing. The
// outcome tree still simulates each history once. The ratio is reported
// as early_measured_vs_sampled_pct and gated in CI by
// `benchgate -ceiling early_measured_vs_sampled_pct=1000`; a per-shot
// re-execution reads above 1400.
func BenchmarkEarlyMeasuredShots(b *testing.B) {
	const n, shots = 6, 64
	sampled, measured := measuredAnsatz(n)
	early := circuit.New("ansatz", n).Measure(0).Append(measured)
	minEarly, minSampled := minBatchPair(b, early, sampled, shots)
	pct := 100 * float64(minEarly) / float64(minSampled)
	b.ReportMetric(pct, "early_measured_vs_sampled_pct")
	report(fmt.Sprintf("early-measured vs sampled shots (%d-qubit ansatz, %d shots, optimized engine)", n, shots),
		fmt.Sprintf("early %8.1f µs/batch  sampled %8.1f µs/batch  early_measured_vs_sampled_pct %.1f (ceiling 1000)\n",
			float64(minEarly.Nanoseconds())/1e3, float64(minSampled.Nanoseconds())/1e3, pct))
}

// measuredAnsatz returns the stackbench sessions-shaped n-qubit ansatz
// without measurements and with a terminal measure per qubit.
func measuredAnsatz(n int) (sampled, measured *circuit.Circuit) {
	rng := rand.New(rand.NewSource(1))
	sampled = circuit.New("ansatz", n)
	for q := 0; q < n; q++ {
		sampled.H(q).RZ(q, float64(rng.Intn(4))*math.Pi).H(q)
	}
	for i := 0; i < 2*n; i++ {
		p := rng.Perm(n)
		sampled.CNOT(p[0], p[1])
	}
	for j := 0; j < n/2; j++ {
		sampled.RZ(rng.Intn(n), rng.Float64()*2*math.Pi)
	}
	measured = sampled.Clone()
	for q := 0; q < n; q++ {
		measured.Measure(q)
	}
	return sampled, measured
}

// minBatchPair runs x then y for the given shots on the optimized engine
// once per iteration and returns each one's fastest batch. Both arms run
// inside the caller's leaf so its metric lands on a parsed result line;
// min over iterations damps scheduler noise.
func minBatchPair(b *testing.B, x, y *circuit.Circuit, shots int) (minX, minY time.Duration) {
	sim := qx.NewWithEngine(1, qx.Optimized())
	minX, minY = time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := sim.Run(x, shots); err != nil {
			b.Fatal(err)
		}
		minX = min(minX, time.Since(start))
		start = time.Now()
		if _, err := sim.Run(y, shots); err != nil {
			b.Fatal(err)
		}
		minY = min(minY, time.Since(start))
	}
	return minX, minY
}

// E9 — §2.1/§2.7: error-rate sweep on realistic qubits, from today's
// 10⁻² to the 10⁻⁵/10⁻⁶ the paper says must be understood.
func BenchmarkE9_ErrorRateSweep(b *testing.B) {
	rows := ""
	ghz := circuit.GHZ(5)
	for _, p := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5} {
		p := p
		b.Run(fmt.Sprintf("p%g", p), func(b *testing.B) {
			var fidelity float64
			for i := 0; i < b.N; i++ {
				sim := qx.NewNoisy(11, qx.Depolarizing(p))
				res, err := sim.Run(ghz, 400)
				if err != nil {
					b.Fatal(err)
				}
				fidelity = float64(res.Counts[0]+res.Counts[31]) / 400
			}
			b.ReportMetric(fidelity, "fidelity")
			rows += fmt.Sprintf("p=%-8g GHZ-5 fidelity %.3f\n", p, fidelity)
		})
	}
	report("E9 error-rate sweep", rows)
}

// E10 — §Background: QEC consumes >90 % of computational activity;
// logical error rates improve with distance below threshold.
func BenchmarkE10_QECOverhead(b *testing.B) {
	rows := ""
	rng := rand.New(rand.NewSource(13))
	for _, d := range []int{3, 5} {
		d := d
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			sc, err := qec.NewSurfaceCode(d)
			if err != nil {
				b.Fatal(err)
			}
			var logical float64
			for i := 0; i < b.N; i++ {
				logical = sc.LogicalErrorRate(0.01, 2000, rng)
			}
			ops := sc.ESMCycleOps()
			frac := qec.OverheadFraction(ops, 1, 1)
			b.ReportMetric(logical, "logical-err")
			rows += fmt.Sprintf("d=%d  ESM ops/round %3d  QEC fraction %.3f  logical error @p=0.01: %.4f\n",
				d, ops, frac, logical)
		})
	}
	report("E10 QEC overhead (paper: >90% of activity; smaller logical error with d)", rows)
}

// E11 — §2.3: Grover is quadratically better; the crossover grows with
// the database size.
func BenchmarkE11_GroverCrossover(b *testing.B) {
	rows := ""
	for _, n := range []int{6, 10, 14, 18} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			dim := 1 << uint(n)
			target := dim - 2
			oracle := func(idx int) bool { return idx == target }
			var quantumIters int
			for i := 0; i < b.N; i++ {
				quantumIters = grover.OptimalIterations(dim, 1)
				if n <= 14 {
					if _, err := grover.Search(n, oracle, quantumIters); err != nil {
						b.Fatal(err)
					}
				}
			}
			classical := dim / 2
			b.ReportMetric(float64(classical)/float64(quantumIters), "speedup")
			rows += fmt.Sprintf("N=2^%-2d classical ≈%8d queries, Grover %5d iterations, advantage %7.1f×\n",
				n, classical, quantumIters, float64(classical)/float64(quantumIters))
		})
	}
	report("E11 Grover crossover (quadratic speedup shape)", rows)
}

// E12 — §3.3: embedding capacity — N² qubit growth, 9-ish cities max on
// a 2000Q-class Chimera, 90 on a fully-connected 8192-node annealer.
func BenchmarkE12_EmbeddingCapacity(b *testing.B) {
	rows := ""
	for _, n := range []int{3, 4, 5, 6, 8} {
		n := n
		b.Run(fmt.Sprintf("cities%d", n), func(b *testing.B) {
			vars := n * n
			var e *embed.Embedding
			var err error
			for i := 0; i < b.N; i++ {
				e, err = embed.CliqueEmbedChimera(vars, 16, 4)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(e.PhysicalQubits()), "phys-qubits")
			rows += fmt.Sprintf("%d cities → %3d logical → %4d physical qubits (max chain %2d)\n",
				n, vars, e.PhysicalQubits(), e.MaxChainLength())
		})
	}
	cap2000q := embed.CliqueCapacityChimera(16, 4)
	rows += fmt.Sprintf("2000Q clique capacity %d vars → max %d cities (paper: 9; 10 must fail)\n",
		cap2000q, tsp.MaxCitiesForQubits(cap2000q))
	if _, err := embed.CliqueEmbedChimera(100, 16, 4); err == nil {
		b.Fatal("10 cities should not embed")
	}
	rows += fmt.Sprintf("fully-connected 8192 nodes → max %d cities (paper: 90)\n",
		tsp.MaxCitiesForQubits(8192))
	report("E12 embedding capacity", rows)
}

// E13 — §2.3: ≈150 logical qubits for genome-scale search.
func BenchmarkE13_GenomeQubitModel(b *testing.B) {
	rows := ""
	var est int
	for i := 0; i < b.N; i++ {
		for _, g := range []struct {
			name string
			size int
			read int
		}{
			{"E. coli", 4_600_000, 50},
			{"human chr21", 46_700_000, 50},
			{"human genome", 3_100_000_000, 50},
		} {
			est = genome.LogicalQubitEstimate(g.size, g.read)
			if i == 0 {
				rows += fmt.Sprintf("%-14s %12d bases → %3d logical qubits\n", g.name, g.size, est)
			}
		}
	}
	b.ReportMetric(float64(est), "qubits")
	report("E13 genome qubit model (paper: ≈150 for the human genome)", rows)
}

// E14 — Fig 10: the development-timeline projection, generated by a
// deterministic TRL logistic model for the two tracks.
func BenchmarkE14_TRLProjection(b *testing.B) {
	trl := func(year, midpoint, rate float64) float64 {
		return 1 + 7/(1+math.Exp(-rate*(year-midpoint)))
	}
	rows := "year  accelerator(perfect)  chip(realistic)\n"
	var acc, chip float64
	for i := 0; i < b.N; i++ {
		rows = "year  accelerator(perfect)  chip(realistic)\n"
		for year := 2019; year <= 2035; year += 2 {
			acc = trl(float64(year), 2026, 0.55)  // software/accelerator track
			chip = trl(float64(year), 2031, 0.45) // hardware track matures later
			rows += fmt.Sprintf("%d %12.1f %18.1f\n", year, acc, chip)
		}
	}
	b.ReportMetric(acc-chip, "trl-gap-2035")
	report("E14 TRL projection (accelerator track reaches TRL 8 first)", rows)
}

// E15 — §2.6: mapping overhead under nearest-neighbour constraints
// across topologies.
func BenchmarkE15_MappingOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	c := circuit.RandomCircuit(9, 6, rng)
	topos := []struct {
		name string
		topo *topology.Topology
	}{
		{"all-to-all", nil},
		{"grid3x3", topology.Grid(3, 3)},
		{"linear9", topology.Linear(9)},
	}
	rows := ""
	for _, tc := range topos {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			n := 9
			platform := &compiler.Platform{Name: tc.name, NumQubits: n, Topology: tc.topo,
				Gates: map[string]compiler.GateInfo{}}
			if tc.topo != nil {
				platform.NumQubits = tc.topo.N
			}
			var mr *compiler.MapResult
			var err error
			for i := 0; i < b.N; i++ {
				mr, err = compiler.MapCircuit(c, platform, compiler.MapOptions{Lookahead: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(mr.AddedSwaps), "swaps")
			rows += fmt.Sprintf("%-12s swaps %3d  latency factor %.2f\n",
				tc.name, mr.AddedSwaps, mr.LatencyFactor)
		})
	}
	report("E15 mapping overhead (NN constraint cost)", rows)
}

// E16 — §2.3: the cryptography motivation — Shor's algorithm factors a
// small RSA-style modulus via quantum order finding.
func BenchmarkE16_ShorFactoring(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var res *algo.FactorResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = algo.Factor(15, 6, 20, rng)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Attempts), "attempts")
	report("E16 Shor factoring", fmt.Sprintf(
		"N=15 → %d × %d (base a=%d, order %d, %d attempts; 10-qubit register)\n",
		res.Factors[0], res.Factors[1], res.A, res.Order, res.Attempts))
}

// E18 — the engine layer (ISSUE 2): multi-shot sampling on a 16-qubit
// circuit across the execution engines. "serial" is the reference engine
// as a single-threaded baseline (per-shot linear-scan sampling, per-gate
// matrix materialisation); "parallel" is the optimized engine with
// parallel shot batches across the machine's cores (specialized kernels,
// precompiled op table, cumulative binary-search sampling). The recorded
// serial/parallel speedup must be ≥ 2x.
func BenchmarkEngineParallelVsSerial(b *testing.B) {
	const n = 16
	const shots = 2048
	rng := rand.New(rand.NewSource(18))
	c := circuit.GHZ(n)
	for q := 0; q < n; q++ {
		c.RY(q, rng.Float64())
	}

	var serial, parallel time.Duration
	b.Run("reference-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim := qx.NewWithEngine(18, qx.Reference())
			if _, err := sim.Run(c, shots); err != nil {
				b.Fatal(err)
			}
		}
		serial = b.Elapsed() / time.Duration(b.N)
	})
	b.Run("optimized-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim := qx.NewWithEngine(18, qx.Optimized())
			if _, err := sim.Run(c, shots); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimized-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim := qx.NewWithEngine(18, qx.Optimized())
			if _, err := sim.RunParallel(c, shots, 0); err != nil {
				b.Fatal(err)
			}
		}
		parallel = b.Elapsed() / time.Duration(b.N)
	})
	if serial > 0 && parallel > 0 {
		speedup := float64(serial) / float64(parallel)
		b.ReportMetric(speedup, "serial/parallel")
		report("E18 engine layer (16-qubit multi-shot sampling)", fmt.Sprintf(
			"reference serial   %10.2f ms/run\noptimized parallel %10.2f ms/run (%d cores)\nspeedup            %10.1fx\n",
			float64(serial.Nanoseconds())/1e6, float64(parallel.Nanoseconds())/1e6,
			runtime.GOMAXPROCS(0), speedup))
	}
}

// E19 — the pass-manager compile path (ISSUE 3): the default pipeline on
// the superconducting platform with Surface-17 topology routing
// (lookahead on), so compile-path regressions show up in the CI
// bench-smoke step. The per-pass breakdown from the compile report is
// printed once — the hot-path visibility the pass manager adds.
func BenchmarkCompilePipeline(b *testing.B) {
	qft := circuit.QFT(8, true)
	prog := openql.NewProgram("qft8", 8)
	k := openql.NewKernel("qft", 8)
	for _, g := range qft.Gates {
		k.Gate(g.Name, g.Qubits, g.Params...)
	}
	for q := 0; q < 8; q++ {
		k.Measure(q)
	}
	prog.AddKernel(k)
	opts := openql.CompileOptions{
		Mode:     openql.RealisticQubits,
		Platform: compiler.Superconducting(),
		Passes:   "decompose,optimize,map(lookahead=true),lower-swaps,optimize-lowered,schedule,assemble",
	}
	var compiled *openql.Compiled
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compiled, err = prog.Compile(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(compiled.Circuit.Gates)), "gates")
	report("E19 pass-manager compile pipeline (QFT-8 on Surface-17, lookahead routing)",
		compiled.Report.String())
}

// coldStack is the cold benchmark mix's device as a stack: a 7-qubit
// transmon patch with the superconducting preset's gate set and timings
// and a zero-error calibration, so every job runs the realistic path
// (eQASM through the micro-architecture) without drawing noise.
func coldStack(tb testing.TB) *core.Stack {
	tb.Helper()
	topo := topology.New("transmon7", 7)
	for _, e := range [][2]int{{0, 2}, {0, 3}, {1, 3}, {1, 4}, {2, 5}, {3, 5}, {3, 6}, {4, 6}} {
		topo.AddEdge(e[0], e[1])
	}
	stack, err := core.NewStackForDevice(&target.Device{
		Name:        "transmon7",
		NumQubits:   7,
		CycleTimeNs: 20,
		Gates:       target.NISQGates(1, 2, 15, 10),
		Topology:    topo,
		Calibration: target.Uniform(7, topo, target.QubitCalibration{}, 0),
	}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	stack.KernelWorkers = 1
	return stack
}

// coldJobCQASM renders one request of the cold mix: a 5-qubit QFT
// without final swaps on a random basis state, each qubit's phase undone
// by an rz and an h, a random X mask on top, every qubit measured, and a
// random phase on the fresh qubit 0 in front that makes the text unique.
func coldJobCQASM(rng *rand.Rand) string {
	const n = 5
	var b strings.Builder
	fmt.Fprintf(&b, "version 1.0\nqubits %d\n.cold\nrz q[0], %.17g\n", n, rng.Float64()*2*math.Pi)
	in := make([]bool, n)
	for q := range in {
		if in[q] = rng.Intn(2) == 1; in[q] {
			fmt.Fprintf(&b, "x q[%d]\n", q)
		}
	}
	for j := 0; j < n; j++ {
		fmt.Fprintf(&b, "h q[%d]\n", j)
		for k := j + 1; k < n; k++ {
			fmt.Fprintf(&b, "cr q[%d], q[%d], %.17g\n", k, j, math.Pi/float64(int(1)<<(k-j)))
		}
	}
	for j := 0; j < n; j++ {
		var phi float64
		for k := j; k < n; k++ {
			if in[k] {
				phi += math.Pi / float64(int(1)<<(k-j))
			}
		}
		fmt.Fprintf(&b, "rz q[%d], %.17g\nh q[%d]\n", j, -phi, j)
	}
	for q := 0; q < n; q++ {
		if rng.Intn(2) == 1 {
			fmt.Fprintf(&b, "x q[%d]\n", q)
		}
	}
	for q := 0; q < n; q++ {
		fmt.Fprintf(&b, "measure q[%d]\n", q)
	}
	return b.String()
}

// coldJobShots is the shot count the cold mix gives each job.
const coldJobShots = 16

// parseColdJob turns a cold request's text into the program the service
// compiles, the way qserv's gate backends do.
func parseColdJob(tb testing.TB, text string) *openql.Program {
	tb.Helper()
	prog, err := cqasm.Parse(text)
	if err != nil {
		tb.Fatal(err)
	}
	return openql.ProgramFromCircuit("cold", prog.Flatten())
}

// BenchmarkColdJob is one job of the stackbench cold mix without the
// service around it: parse the cQASM text, compile it through the whole
// default pipeline (both cache levels miss), and run it at 16 shots
// through eQASM and the micro-architecture. Run it with -benchmem: the
// allocs/op figure is what benchgate holds, beside ns/op; the tier-1
// TestColdJobAllocs holds the job's absolute allocation and byte
// ceilings.
func BenchmarkColdJob(b *testing.B) {
	stack := coldStack(b)
	rng := rand.New(rand.NewSource(5))
	texts := make([]string, 16)
	for i := range texts {
		texts[i] = coldJobCQASM(rng)
	}
	job := func(text string) {
		prog := parseColdJob(b, text)
		compiled, err := stack.Compile(prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stack.RunCompiled(compiled, prog.NumQubits, coldJobShots, 1); err != nil {
			b.Fatal(err)
		}
	}
	// The first compile on a device builds its routing tables and its
	// platform's lowering table; keep it out of the timed loop.
	job(texts[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job(texts[i%len(texts)])
	}
}

// Ceilings of one cold-mix job: what it took once decode built the
// compact circuit the engine runs, the serial kernels stopped allocating
// closures and routing built its output at its final size (compile 352
// allocations and 210,368 bytes, run 59 allocations and 132,424 bytes),
// plus a tenth. Before that the run took 602 allocations and 206,546
// bytes.
const (
	coldCompileAllocCeiling = 352 * 11 / 10
	coldCompileByteCeiling  = 210368 * 11 / 10
	coldRunAllocCeiling     = 59 * 11 / 10
	coldRunByteCeiling      = 132424 * 11 / 10
)

// TestColdJobAllocs holds the lean cold path in place: a cold-mix job's
// compile and its 16-shot run through the micro-architecture stay under
// allocation and byte ceilings. Bytes are what drive the collector.
func TestColdJobAllocs(t *testing.T) {
	stack := coldStack(t)
	prog := parseColdJob(t, coldJobCQASM(rand.New(rand.NewSource(5))))
	// The first compile also builds the device's routing and lowering
	// tables.
	compiled, err := stack.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	compile, compileBytes := allocsPerRun(10, func() {
		if _, err := stack.Compile(prog); err != nil {
			t.Fatal(err)
		}
	})
	run, runBytes := allocsPerRun(10, func() {
		if _, err := stack.RunCompiled(compiled, prog.NumQubits, coldJobShots, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold job: compile %.0f allocations, %.0f bytes; run %.0f allocations, %.0f bytes", compile, compileBytes, run, runBytes)
	if compile > coldCompileAllocCeiling {
		t.Errorf("compiling a cold job takes %.0f allocations, ceiling %d", compile, coldCompileAllocCeiling)
	}
	if compileBytes > coldCompileByteCeiling {
		t.Errorf("compiling a cold job allocates %.0f bytes, ceiling %d", compileBytes, coldCompileByteCeiling)
	}
	if run > coldRunAllocCeiling {
		t.Errorf("running a cold job takes %.0f allocations, ceiling %d", run, coldRunAllocCeiling)
	}
	if runBytes > coldRunByteCeiling && !raceEnabled {
		t.Errorf("running a cold job allocates %.0f bytes, ceiling %d", runBytes, coldRunByteCeiling)
	}
}

// allocsPerRun is testing.AllocsPerRun that also reports bytes: the mean
// allocations and bytes of one call of f, after a warm-up call, on one
// P. It takes the least of three rounds of runs calls, because a garbage
// collection that lands inside a round empties the sync.Pools the run
// recycles and charges their refill to that round.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs, bytes = math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/float64(runs))
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return allocs, bytes
}

// Ceilings of the per-job overhead of a cache-hot job: what one resubmit
// and its long-poll allocate through the HTTP API, in the server and the
// in-process client together. Before admission parsed each cQASM text
// once into a memoised program, responses went compact and the qx PRNG
// was reseeded instead of rebuilt, such a job took 544 allocations and
// 68,088 bytes; the ceilings are half of each.
const (
	hotJobAllocCeiling = 544 / 2
	hotJobByteCeiling  = 68088 / 2
)

// TestHotJobAllocs drives cache-hot resubmits of one 5-qubit qft, the
// shape of stackbench's hot mix, through Service.Handler(): a POST
// /submit and a long-polling GET /jobs/{id} per job, 64 shots on the
// perfect stack. Allocation counts are process-wide, so the worker's
// share is included.
func TestHotJobAllocs(t *testing.T) {
	s := qserv.New(qserv.Config{})
	s.AddBackend(qserv.NewStackBackend(core.NewPerfect(10, 1)), 1)
	s.Start()
	defer s.Stop()
	h := s.Handler()
	text, err := json.Marshal(coldJobCQASM(rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	body := `{"name":"qft","cqasm":` + string(text) + `,"backend":"perfect","shots":64}`
	// http.NewRequest rather than httptest.NewRequest: the latter parses
	// a serialised request through a fresh 4 KB bufio.Reader, a client
	// cost that would hide the server's.
	serve := func(method, target string, body io.Reader) *httptest.ResponseRecorder {
		req, err := http.NewRequest(method, target, body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	job := func() {
		rec := serve(http.MethodPost, "/submit", strings.NewReader(body))
		var sub struct{ ID string }
		if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &sub) != nil {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
		}
		rec = serve(http.MethodGet, "/jobs/"+sub.ID+"?wait=10s", nil)
		var view struct{ Status string }
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &view) != nil || view.Status != "done" {
			t.Fatalf("poll: %d %s", rec.Code, rec.Body.String())
		}
	}
	// The first job compiles; the rest are full-artefact cache hits.
	for i := 0; i < 20; i++ {
		job()
	}
	const jobs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		job()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / jobs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	t.Logf("hot job: %.0f allocations, %.0f bytes", allocs, bytes)
	if allocs > hotJobAllocCeiling {
		t.Errorf("a cache-hot job takes %.0f allocations, ceiling %d", allocs, hotJobAllocCeiling)
	}
	if bytes > hotJobByteCeiling {
		t.Errorf("a cache-hot job allocates %.0f bytes, ceiling %d", bytes, hotJobByteCeiling)
	}
}

// E20 — the noise-aware mapping pass (ISSUE 4): hop-count routing versus
// calibration-weighted routing on a Surface-17 device with skewed edge
// errors. Reports routing cost (swaps) and the expected-success-
// probability gain that paying extra swaps for cleaner couplers buys.
func BenchmarkNoiseAwareMap(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	dev := target.Superconducting()
	for j := range dev.Calibration.Edges {
		dev.Calibration.Edges[j].TwoQubitError = math.Pow(10, -3+2.5*rng.Float64())
	}
	platform := compiler.PlatformFor(dev)
	c := circuit.RandomCircuit(12, 8, rng)
	decomposed, err := compiler.Decompose(c, platform)
	if err != nil {
		b.Fatal(err)
	}
	routers := []struct {
		name string
		fn   func(*circuit.Circuit, *compiler.Platform, compiler.MapOptions) (*compiler.MapResult, error)
	}{
		{"hop", compiler.MapCircuit},
		{"noise", compiler.MapCircuitNoise},
	}
	rows := ""
	for _, r := range routers {
		r := r
		b.Run(r.name, func(b *testing.B) {
			var mr *compiler.MapResult
			var err error
			for i := 0; i < b.N; i++ {
				mr, err = r.fn(decomposed, platform, compiler.MapOptions{Lookahead: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			esp := compiler.ExpectedSuccess(mr.Circuit, platform)
			b.ReportMetric(float64(mr.AddedSwaps), "swaps")
			b.ReportMetric(esp, "esp")
			rows += fmt.Sprintf("%-6s swaps %3d  latency factor %.2f  expected success %.4f\n",
				r.name, mr.AddedSwaps, mr.LatencyFactor, esp)
		})
	}
	report("E20 noise-aware mapping (Surface-17, skewed calibration)", rows)
}

// E21 — the two-level compile cache (ISSUE 5): cold full-pipeline
// compilation versus prefix-cached recompiles that only change the
// map/schedule configuration. The program is QFT-8 (plus rotation-dense
// mixing kernels that decompose+optimize work hard on) compiled for the
// Surface-17 superconducting target; the variants alternate scheduling
// policy and lookahead window, so the full-artefact cache always misses
// while every kernel's platform-generic prefix is served from the prefix
// cache and only the variant suffix re-runs. The recorded cold/cached
// speedup must be ≥ 2x.
func BenchmarkPrefixCachedRecompile(b *testing.B) {
	const n = 8
	prog := openql.NewProgram("qft8-variants", n)
	qft := circuit.QFT(n, true)
	k := openql.NewKernel("qft", n)
	for _, g := range qft.Gates {
		k.Gate(g.Name, g.Qubits, g.Params...)
	}
	prog.AddKernel(k)
	// Rotation-dense mixing kernels: long chains of rotations that merge
	// and cancel to almost nothing under the peephole optimiser — heavy
	// platform-generic prefix work whose small output keeps the variant
	// suffix cheap. This is the request-variant shape the prefix cache
	// amortises: expensive decompose+optimize once, map/schedule many
	// times.
	rng := rand.New(rand.NewSource(21))
	for kn := 0; kn < 3; kn++ {
		mix := openql.NewKernel(fmt.Sprintf("mix%d", kn), n)
		for i := 0; i < 1500; i++ {
			q := rng.Intn(n)
			a, c := rng.Float64(), rng.Float64()
			mix.RZ(q, a).RZ(q, -a/2).RY(q, c).RY(q, -c)
			if i%50 == 0 {
				mix.CNOT(q, (q+1)%n)
			}
		}
		prog.AddKernel(mix)
	}
	meas := openql.NewKernel("meas", n)
	for q := 0; q < n; q++ {
		meas.Measure(q)
	}
	prog.AddKernel(meas)

	platform := compiler.Superconducting()
	variants := make([]openql.CompileOptions, 4)
	for i, v := range []struct{ lookahead, policy string }{
		{"true", "asap"}, {"true", "alap"}, {"4", "asap"}, {"12", "alap"},
	} {
		variants[i] = openql.CompileOptions{
			Mode:     openql.RealisticQubits,
			Platform: platform,
			Passes: fmt.Sprintf("decompose,optimize,map(lookahead=%s),lower-swaps,optimize-lowered,schedule(policy=%s),assemble",
				v.lookahead, v.policy),
		}
	}

	var cold, cached time.Duration
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prog.Compile(variants[i%len(variants)]); err != nil {
				b.Fatal(err)
			}
		}
		cold = b.Elapsed() / time.Duration(b.N)
	})
	var hits, kernels int
	b.Run("prefix-cached", func(b *testing.B) {
		cache := qserv.NewPrefixCache(256)
		warm := variants[0]
		warm.PrefixCache = cache
		if _, err := prog.Compile(warm); err != nil {
			b.Fatal(err) // warm the per-kernel prefix entries
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opts := variants[i%len(variants)]
			opts.PrefixCache = cache
			compiled, err := prog.Compile(opts)
			if err != nil {
				b.Fatal(err)
			}
			hits, kernels = compiled.Report.PrefixHits, len(compiled.Report.Kernels)
		}
		cached = b.Elapsed() / time.Duration(b.N)
		if hits != kernels {
			b.Fatalf("prefix-cached arm hit %d/%d kernels", hits, kernels)
		}
	})
	if cold > 0 && cached > 0 {
		speedup := float64(cold) / float64(cached)
		b.ReportMetric(speedup, "cold/cached")
		report("E21 two-level compile cache (QFT-8 + mixing kernels on Surface-17)", fmt.Sprintf(
			"cold full compile        %10.2f ms\nprefix-cached recompile  %10.2f ms (suffix passes only, %d/%d kernels fetched)\nspeedup                  %10.2fx (target ≥ 2x)\n",
			float64(cold.Nanoseconds())/1e6, float64(cached.Nanoseconds())/1e6,
			hits, kernels, speedup))
	}
}

// E23 — parametric compilation (ISSUE 7): the bind-only fast path of
// the variational loop. A depth-3 QAOA ansatz over 8 spins compiles
// once on the Surface-17 superconducting stack with its six symbolic
// angles preserved through decompose, optimise, map, schedule and eQASM
// assembly; each of 64 (γ, β) parameter points is then produced two
// ways — a full literal recompile (what every optimiser iteration cost
// before sessions) versus an O(#slots) BindArtefact patch of the pinned
// symbolic artefact. The ratio is reported as bind_vs_compile_pct
// (100·bind/recompile) and held under 10 by benchgate's
// `-ceiling bind_vs_compile_pct=10` — the ≥10x speedup floor.
func BenchmarkParamBindVsRecompile(b *testing.B) {
	const spins, layers, points = 8, 3, 64
	m := qubo.NewIsing(spins)
	for i := 0; i < spins; i++ {
		m.SetJ(i, (i+1)%spins, 1.1)
		m.H[i] = 0.3 * float64(i%3)
	}
	problem := &qaoa.Problem{Model: m}
	stack := core.NewSuperconducting(23)

	// Deterministic low-discrepancy parameter sweep: every point is a
	// distinct (γ, β) vector, like an optimiser trajectory.
	point := func(i int) (gammas, betas []float64) {
		gammas, betas = make([]float64, layers), make([]float64, layers)
		for l := 0; l < layers; l++ {
			gammas[l] = 0.1 + 0.8*math.Mod(float64(i*layers+l)*0.6180339887, 1)
			betas[l] = 0.1 + 0.6*math.Mod(float64(i*layers+l)*0.3819660113, 1)
		}
		return gammas, betas
	}

	ansatz, err := problem.BuildParametricCircuit(layers)
	if err != nil {
		b.Fatal(err)
	}

	var bindT, recompileT time.Duration
	b.Run("recompile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for pt := 0; pt < points; pt++ {
				gammas, betas := point(pt)
				lit, err := problem.BuildCircuit(gammas, betas)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := stack.Compile(openql.ProgramFromCircuit("qaoa-lit", lit)); err != nil {
					b.Fatal(err)
				}
			}
		}
		recompileT = b.Elapsed() / time.Duration(b.N*points)
	})
	var symbols []string
	b.Run("bind", func(b *testing.B) {
		compiled, err := stack.Compile(openql.ProgramFromCircuit("qaoa-sym", ansatz))
		if err != nil {
			b.Fatal(err)
		}
		symbols = compiled.Symbols()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for pt := 0; pt < points; pt++ {
				gammas, betas := point(pt)
				vals, err := qaoa.BindValues(gammas, betas)
				if err != nil {
					b.Fatal(err)
				}
				bound, err := compiled.BindArtefact(vals)
				if err != nil {
					b.Fatal(err)
				}
				if bound.IsParametric() {
					b.Fatal("bound artefact still parametric")
				}
			}
		}
		bindT = b.Elapsed() / time.Duration(b.N*points)
	})
	if bindT > 0 && recompileT > 0 {
		pct := 100 * float64(bindT) / float64(recompileT)
		b.ReportMetric(pct, "bind_vs_compile_pct")
		report("E23 parametric bind vs recompile (depth-3 QAOA, Surface-17, 64 points)", fmt.Sprintf(
			"symbols %v\nfull recompile %10.1f µs/point\nbind-only      %10.1f µs/point\nspeedup        %10.1fx (bind_vs_compile_pct %.2f, ceiling 10 ⇒ floor 10x)\n",
			symbols, float64(recompileT.Nanoseconds())/1e3, float64(bindT.Nanoseconds())/1e3,
			float64(recompileT)/float64(bindT), pct))
	}
}

// E17 — the qserv service layer (ISSUE 1): cold compile versus the
// compiled-circuit cache on resubmission. The cached path skips
// decomposition, optimisation, Surface-17 mapping, scheduling and eQASM
// assembly, going straight to seeded QX execution — it must be
// measurably faster than the cold path.
func BenchmarkQservColdVsCachedSubmit(b *testing.B) {
	prog := openql.NewProgram("qserv-bench", 5)
	k := openql.NewKernel("layer", 5)
	for q := 0; q < 5; q++ {
		k.H(q)
	}
	for q := 0; q < 4; q++ {
		k.CNOT(q, q+1)
	}
	for q := 0; q < 5; q++ {
		k.RZ(q, 0.1*float64(q+1))
	}
	// Explicit per-qubit measures: measure_all would expand to the whole
	// 17-qubit chip in eQASM and the execution cost would swamp the
	// compile-path difference this benchmark isolates.
	for q := 0; q < 5; q++ {
		k.Measure(q)
	}
	prog.AddKernel(k)

	s := qserv.New(qserv.Config{Seed: 17})
	s.AddBackend(qserv.NewStackBackend(core.NewSuperconducting(17)), 2)
	s.Start()
	defer s.Stop()

	// One shot per job: execution is identical in both arms, so a minimal
	// shot count isolates the compile-versus-cache difference.
	submit := func(b *testing.B) {
		j, err := s.Submit(qserv.Request{Program: prog, Backend: "superconducting", Shots: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
	}

	var cold, cached time.Duration
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Cache().Clear()
			submit(b)
		}
		cold = b.Elapsed() / time.Duration(b.N)
	})
	b.Run("cached", func(b *testing.B) {
		submit(b) // warm the cache entry
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(b)
		}
		cached = b.Elapsed() / time.Duration(b.N)
		if st := s.Cache().Stats(); st.Hits == 0 {
			b.Fatal("cached path never hit the cache")
		}
	})
	if cold > 0 && cached > 0 {
		b.ReportMetric(float64(cold)/float64(cached), "cold/cached")
		report("E17 qserv compiled-circuit cache (cold vs cached resubmit)", fmt.Sprintf(
			"cold submit   %8.1f µs/job\ncached submit %8.1f µs/job\nspeedup       %8.2fx\n",
			float64(cold.Nanoseconds())/1e3, float64(cached.Nanoseconds())/1e3,
			float64(cold)/float64(cached)))
	}
}

// E22 — observability overhead (ISSUE 6): the metrics registry, span
// tracer and HTTP-free job path must cost under 5% on the hottest
// qserv path, the cache-hit resubmit. Two identical services — one
// fully instrumented (metrics + traces, the default), one with
// DisableMetrics and tracing off — run fixed interleaved blocks of
// cached submits; per arm the minimum block time is the least-noise
// estimator, and their ratio is reported as overhead_pct, gated in CI
// by `benchgate -ceiling overhead_pct=5`.
func BenchmarkObsOverhead(b *testing.B) {
	prog := openql.NewProgram("obs-bench", 4)
	k := openql.NewKernel("layer", 4)
	for q := 0; q < 4; q++ {
		k.H(q)
	}
	for q := 0; q < 3; q++ {
		k.CNOT(q, q+1)
	}
	for q := 0; q < 4; q++ {
		k.Measure(q)
	}
	prog.AddKernel(k)

	newService := func(instrumented bool) *qserv.Service {
		cfg := qserv.Config{Seed: 17}
		if !instrumented {
			cfg.DisableMetrics = true
			cfg.TraceRing = -1
		}
		s := qserv.New(cfg)
		s.AddBackend(qserv.NewStackBackend(core.NewSuperconducting(17)), 1)
		s.Start()
		return s
	}
	instr := newService(true)
	defer instr.Stop()
	bare := newService(false)
	defer bare.Stop()

	submit := func(s *qserv.Service) {
		j, err := s.Submit(qserv.Request{Program: prog, Backend: "superconducting", Shots: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	// Warm both full-artefact caches so every timed submit is a cache
	// hit: queue → worker → cached artefact → 1-shot execution → retire.
	submit(instr)
	submit(bare)

	run := func(s *qserv.Service, jobs int) time.Duration {
		start := time.Now()
		for i := 0; i < jobs; i++ {
			submit(s)
		}
		return time.Since(start)
	}

	const blocks, perBlock = 8, 50
	minInstr, minBare := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < b.N; i++ {
		for blk := 0; blk < blocks; blk++ {
			// Alternate arm order per block so clock drift and cache
			// warming cancel instead of biasing one arm.
			var ti, tb time.Duration
			if blk%2 == 0 {
				ti, tb = run(instr, perBlock), run(bare, perBlock)
			} else {
				tb, ti = run(bare, perBlock), run(instr, perBlock)
			}
			minInstr, minBare = min(minInstr, ti), min(minBare, tb)
		}
	}
	pct := max(0, (float64(minInstr)/float64(minBare)-1)*100)
	b.ReportMetric(pct, "overhead_pct")
	report("E22 observability overhead (instrumented vs bare cached submit)", fmt.Sprintf(
		"instrumented %8.1f µs/job (metrics + traces)\nbare         %8.1f µs/job (DisableMetrics, tracing off)\noverhead     %8.2f%% (ceiling 5%%)\n",
		float64(minInstr.Nanoseconds())/float64(perBlock)/1e3,
		float64(minBare.Nanoseconds())/float64(perBlock)/1e3, pct))
}
