// TSP example: reproduces Fig 9 — the 4-city Netherlands route-planning
// instance reduced to a 16-variable QUBO and solved on every accelerator
// model the paper discusses: exact enumeration, the nearest-neighbour and
// 2-opt classical heuristics, simulated annealing,
// path-integral simulated quantum annealing (D-Wave-style), the
// fully-connected digital annealer (Fujitsu-style), and gate-based QAOA,
// plus the Chimera embedding overhead and the 9-vs-90-city capacity
// argument.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/obs"
	"repro/internal/openql"
	"repro/internal/qaoa"
	"repro/internal/qserv"
	"repro/internal/qubo"
	"repro/internal/tsp"
)

// phaseNs digs one phase span's duration out of a finished job's trace.
func phaseNs(j *qserv.Job, phase string) int64 {
	tr := j.Trace()
	if tr == nil {
		return 0
	}
	var find func(v *obs.SpanView) int64
	find = func(v *obs.SpanView) int64 {
		if v.Name == phase {
			return v.DurationNs
		}
		for _, c := range v.Children {
			if ns := find(c); ns > 0 {
				return ns
			}
		}
		return 0
	}
	return find(tr.View().Root)
}

func main() {
	g := tsp.Netherlands4()
	fmt.Println("Fig 9: four Dutch cities, scaled Euclidean distances")
	for i, name := range g.Names {
		fmt.Printf("  %d: %s\n", i, name)
	}

	// Reference: enumerate all tours.
	tour, cost := g.BruteForce()
	fmt.Printf("\nexact optimum: %v cost %.2f (paper: 1.42)\n", tour, cost)
	nnTour, nnCost := g.NearestNeighbor(0)
	fmt.Printf("%-28s tour %v cost %.2f\n", "nearest neighbour:", nnTour, nnCost)
	twoOpt, twoOptCost := g.TwoOpt(nnTour)
	fmt.Printf("%-28s tour %v cost %.2f\n", "2-opt:", twoOpt, twoOptCost)

	// QUBO reduction: N² = 16 binary variables x_{c,t}.
	enc := tsp.Encode(g, 0)
	fmt.Printf("QUBO: %d variables, %d interactions\n", enc.NumQubits(), enc.Q.NumInteractions())

	show := func(name string, bits []int) {
		t, err := enc.Decode(bits)
		if err != nil {
			fmt.Printf("%-28s infeasible: %v\n", name, err)
			return
		}
		fmt.Printf("%-28s tour %v cost %.2f\n", name, t, g.TourCost(t))
	}

	sa := anneal.SolveQUBO(enc.Q, anneal.SAOptions{Sweeps: 2000, Restarts: 8, Seed: 7})
	show("simulated annealing:", sa.Bits)

	sqa := anneal.SolveQUBOQuantum(enc.Q, anneal.SQAOptions{Sweeps: 1500, Trotter: 8, Restarts: 6, Seed: 7})
	show("simulated quantum annealing:", sqa.Bits)

	da := anneal.DigitalAnneal(enc.Q, anneal.DigitalAnnealerOptions{Steps: 30000, Seed: 7})
	show("digital annealer:", da.Bits)

	// Gate-based accelerator: QAOA over the 16-qubit register, driven
	// through the service's variational session API. The parameterised
	// ansatz compiles once; the (γ, β) landscape scan then streams
	// parameter bindings that patch the pinned artefact — each grid point
	// costs a microsecond-scale bind instead of a fresh 16-qubit compile.
	problem := qaoa.FromQUBO(enc.Q)
	svc := qserv.New(qserv.Config{Seed: 7})
	svc.AddBackend(qserv.NewStackBackend(core.NewPerfect(16, 7)), 2)
	svc.Start()
	defer svc.Stop()

	ansatz, err := problem.BuildParametricCircuit(1)
	if err != nil {
		log.Fatal(err)
	}
	openStart := time.Now()
	sess, err := svc.OpenSession(qserv.Request{
		Name:    "tsp-ansatz",
		Program: openql.ProgramFromCircuit("tsp-ansatz", ansatz),
		Shots:   768,
	})
	if err != nil {
		log.Fatal(err)
	}
	compileOnce := time.Since(openStart)
	fmt.Printf("\nsession %s: 16-qubit ansatz compiled once in %v, symbols %v\n",
		sess.ID, compileOnce.Round(time.Microsecond), sess.Symbols())

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	model := problem.Model
	var (
		bestBits    []int
		bestBitsE   = math.Inf(1)
		bindNsTotal int64
		points      int
	)
	spins := make([]int, model.N)
	for gi := 0; gi < 6; gi++ {
		for bi := 0; bi < 4; bi++ {
			gamma := 0.05 + float64(gi)*(math.Pi-0.1)/5
			beta := 0.05 + float64(bi)*(math.Pi/2-0.1)/3
			vals, err := qaoa.BindValues([]float64{gamma}, []float64{beta})
			if err != nil {
				log.Fatal(err)
			}
			job, err := svc.BindSession(sess.ID, qserv.BindRequest{Values: vals})
			if err != nil {
				log.Fatal(err)
			}
			if err := job.Wait(ctx); err != nil {
				log.Fatal(err)
			}
			points++
			bindNs := phaseNs(job, "bind")
			bindNsTotal += bindNs
			if points <= 3 {
				fmt.Printf("  point %2d (γ=%.2f β=%.2f): bind %v vs compile-once %v\n",
					points, gamma, beta, time.Duration(bindNs).Round(100*time.Nanosecond),
					compileOnce.Round(time.Microsecond))
			}
			// Keep the best feasible sample across the whole scan.
			for idx := range job.Result().Report.Result.Counts {
				for i := range spins {
					if idx&(1<<uint(i)) != 0 {
						spins[i] = 1
					} else {
						spins[i] = -1
					}
				}
				if e := model.Energy(spins); e < bestBitsE {
					bestBitsE = e
					bestBits = append(bestBits[:0], qubo.SpinsToBits(spins)...)
				}
			}
		}
	}
	fmt.Printf("  scanned %d (γ,β) points: total bind time %v, avg %v per point\n",
		points, time.Duration(bindNsTotal).Round(time.Microsecond),
		time.Duration(bindNsTotal/int64(points)).Round(100*time.Nanosecond))
	show("QAOA p=1 (best sample):", bestBits)

	// Hardware capacity: the paper's embedding argument.
	adj := enc.Q.InteractionGraph()
	e, err := embed.AutoEmbedChimera(adj, 16, 4, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nD-Wave 2000Q-style embedding: 16 logical → %d physical qubits (max chain %d)\n",
		e.PhysicalQubits(), e.MaxChainLength())
	cap2000q := embed.CliqueCapacityChimera(16, 4)
	fmt.Printf("clique capacity C(16,16,4): %d variables → max %d cities (paper: 9)\n",
		cap2000q, tsp.MaxCitiesForQubits(cap2000q))
	fmt.Printf("fully-connected 8192-node digital annealer → max %d cities (paper: 90)\n",
		tsp.MaxCitiesForQubits(8192))
}
