// Hybrid QAOA example: the Fig 8 execution model. The classical host —
// one qserv service — offloads quantum kernels to its accelerator lanes;
// a variational loop alternates between the classical optimiser and the
// gate-based quantum accelerator; the same QUBO also goes to the
// annealing lane for comparison — "the choice of the quantum
// accelerator is dependent on the specific energy landscape of the
// application".
//
// The gate-based loop runs through the service's variational session
// API: the parameterised ansatz compiles ONCE (symbolic angles survive
// the full pipeline), and every optimiser iteration streams a parameter
// binding that patches the pinned artefact instead of recompiling —
// the per-iteration compile cost drops from the full pipeline to an
// O(#symbols) bind, as the printed timings show.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/openql"
	"repro/internal/optimize"
	"repro/internal/qaoa"
	"repro/internal/qserv"
	"repro/internal/qubo"
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
	// A frustrated 6-spin ring with fields: small enough to verify
	// exactly, hard enough to need more than a greedy guess.
	q := qubo.New(6)
	for i := 0; i < 6; i++ {
		q.Set(i, i, -1)
		q.Set(i, (i+1)%6, 2.2)
	}
	xOpt, eOpt := q.BruteForce()
	fmt.Printf("exact optimum: %v energy %.3f\n\n", xOpt, eOpt)

	// The host of Fig 1: one service with a gate-based lane and an
	// annealing lane.
	svc := qserv.New(qserv.Config{Seed: 9})
	svc.AddBackend(qserv.NewStackBackend(core.NewPerfect(6, 9)), 2)
	svc.AddBackend(qserv.NewAnnealBackend("annealer", anneal.SQAOptions{Sweeps: 1200}), 1)
	svc.Start()
	defer svc.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Path 1: annealing accelerator.
	annealJob, err := svc.Submit(qserv.Request{QUBO: q, Backend: "annealer"})
	if err != nil {
		log.Fatal(err)
	}
	if err := annealJob.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	annealRes := annealJob.Result().Anneal
	fmt.Printf("quantum annealer:  bits %v energy %.3f\n\n", annealRes.Bits, annealRes.Energy)

	// Path 2: gate-based accelerator on the same service, driven
	// through a variational session. The depth-3 ansatz keeps its six
	// symbolic angles through the whole compile pipeline.
	problem := qaoa.FromQUBO(q)
	const layers = 3

	ansatz, err := problem.BuildParametricCircuit(layers)
	if err != nil {
		log.Fatal(err)
	}
	openStart := time.Now()
	sess, err := svc.OpenSession(qserv.Request{
		Name:    "qaoa-ansatz",
		Program: openql.ProgramFromCircuit("qaoa-ansatz", ansatz),
		Shots:   1024,
	})
	if err != nil {
		log.Fatal(err)
	}
	compileOnce := time.Since(openStart)
	fmt.Printf("session %s: ansatz compiled once in %v, symbols %v\n",
		sess.ID, compileOnce.Round(time.Microsecond), sess.Symbols())

	model := problem.Model
	energyOf := func(counts map[int]int, shots int) float64 {
		spins := make([]int, model.N)
		var e float64
		for idx, n := range counts {
			for i := range spins {
				if idx&(1<<uint(i)) != 0 {
					spins[i] = 1
				} else {
					spins[i] = -1
				}
			}
			e += float64(n) * model.Energy(spins)
		}
		return e / float64(shots)
	}

	// SPSA over (γ, β): every energy evaluation is one bind sub-job
	// against the pinned artefact. Every 20th iteration also submits the
	// equivalently bound literal circuit as an ordinary job — a fresh
	// program that compiles the full pipeline — to show what each
	// iteration would cost without the session.
	var (
		iter        int
		bindNsTotal int64
		bestBind    *qserv.Job
		bestE       = math.Inf(1)
	)
	objective := func(x []float64) float64 {
		gammas, betas := x[:layers], x[layers:]
		vals, err := qaoa.BindValues(gammas, betas)
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
		res := job.Result().Report.Result
		e := energyOf(res.Counts, res.Shots)
		iter++
		bindNs := phaseNs(job, "bind")
		bindNsTotal += bindNs
		if e < bestE {
			bestE, bestBind = e, job
		}
		if iter%20 == 0 {
			lit, err := problem.BuildCircuit(gammas, betas)
			if err != nil {
				log.Fatal(err)
			}
			ref, err := svc.Submit(qserv.Request{
				Program: openql.ProgramFromCircuit(fmt.Sprintf("lit-%d", iter), lit),
				Shots:   1,
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := ref.Wait(ctx); err != nil {
				log.Fatal(err)
			}
			compileNs := phaseNs(ref, "compile")
			speedup := float64(compileNs) / math.Max(float64(bindNs), 1)
			fmt.Printf("  iter %3d: energy %+.3f  bind %8v vs recompile %8v (%.0fx)\n",
				iter, e,
				time.Duration(bindNs).Round(100*time.Nanosecond),
				time.Duration(compileNs).Round(100*time.Nanosecond), speedup)
		}
		return e
	}
	opt := optimize.SPSA(objective, make([]float64, 2*layers),
		optimize.SPSAOptions{Iterations: 60, Seed: 9})

	// Read out: best assignment seen across the best bind's samples.
	res := bestBind.Result().Report.Result
	bestBits, bestBitsE := make([]int, model.N), math.Inf(1)
	spins := make([]int, model.N)
	for idx := range res.Counts {
		for i := range spins {
			if idx&(1<<uint(i)) != 0 {
				spins[i] = 1
			} else {
				spins[i] = -1
			}
		}
		if e := model.Energy(spins); e < bestBitsE {
			bestBitsE = e
			copy(bestBits, qubo.SpinsToBits(spins))
		}
	}
	var buf bytes.Buffer
	_ = svc.Metrics().WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	m, err := obs.ParseText(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQAOA p=%d via session: bits %v energy %.3f (expectation %.3f, %d evaluations)\n",
		layers, bestBits, q.Energy(bestBits), opt.Value, iter)
	fmt.Printf("session totals: %.0f binds, avg bind %v — vs one full compile %v\n",
		m["qserv_binds_total"], time.Duration(bindNsTotal/int64(iter)).Round(100*time.Nanosecond),
		compileOnce.Round(time.Microsecond))

	// The annealer and QAOA should both reach the exact optimum on this
	// size.
	if q.Energy(annealRes.Bits) != eOpt {
		fmt.Println("note: annealer missed the optimum on this run")
	}
	if q.Energy(bestBits) != eOpt {
		fmt.Println("note: QAOA missed the optimum on this run")
	}
}
