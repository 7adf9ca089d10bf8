// Service example: the accelerator-as-a-service loop end to end. A qserv
// instance is started in-process on a loopback port, then driven purely
// over its HTTP API the way a remote classical host would: submit gate
// jobs (cQASM text) to heterogeneous backends and a QUBO to the annealer,
// long-poll for results, resubmit to demonstrate the compiled-circuit
// cache, and read back the /metrics exposition.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"repro/internal/obs"
	"repro/internal/qserv"
)

const bell = `version 1.0
qubits 2
.bell
h q[0]
cnot q[0], q[1]
measure q[0]
measure q[1]
`

const ghz = `version 1.0
qubits 3
.ghz
h q[0]
cnot q[0], q[1]
cnot q[1], q[2]
measure q[0]
measure q[1]
measure q[2]
`

func main() {
	// Server side: the default Fig 1 system behind the HTTP API.
	svc := qserv.DefaultService(qserv.Config{Seed: 42}, 8, 2)
	svc.Start()
	defer svc.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, svc.Handler())
	base := "http://" + ln.Addr().String()
	fmt.Printf("qserv listening on %s\n\n", base)

	// Client side: everything below uses only net/http, JSON and the
	// exposition parser.
	submit := func(req qserv.SubmitRequest) string {
		body, _ := json.Marshal(req)
		resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var sr qserv.SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			log.Fatalf("submit rejected: %d", resp.StatusCode)
		}
		fmt.Printf("submitted %-7s → backend %-15s (%s)\n", req.Name, sr.Backend, sr.ID)
		return sr.ID
	}
	await := func(id string) qserv.JobView {
		resp, err := http.Get(base + "/jobs/" + id + "?wait=30s")
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var jv qserv.JobView
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			log.Fatal(err)
		}
		if jv.Status != qserv.StatusDone {
			log.Fatalf("job %s: status %s, error %q", id, jv.Status, jv.Error)
		}
		return jv
	}

	// 1. The same Bell circuit on perfect and realistic backends.
	ids := []string{
		submit(qserv.SubmitRequest{Name: "bell", CQASM: bell, Backend: "perfect", Shots: 1024}),
		submit(qserv.SubmitRequest{Name: "bell", CQASM: bell, Backend: "superconducting", Shots: 1024}),
		submit(qserv.SubmitRequest{Name: "ghz", CQASM: ghz, Backend: "perfect", Shots: 1024}),
	}
	// 2. A QUBO for the annealer: minimum at x = (1,1,0), energy -2.
	ids = append(ids, submit(qserv.SubmitRequest{
		Name:    "qubo",
		Backend: "annealer",
		QUBO: &qserv.QUBOJSON{N: 3, Terms: []qserv.QUBOTerm{
			{I: 0, J: 0, V: -1}, {I: 1, J: 1, V: -1}, {I: 0, J: 2, V: 2},
		}},
	}))

	fmt.Println()
	for _, id := range ids {
		jv := await(id)
		switch {
		case jv.Result.Counts != nil:
			fmt.Printf("%-7s on %-15s %5.1f ms  wall %6d ns  counts %v\n",
				jv.Name, jv.Backend, jv.ElapsedMs, jv.Result.WallNs, jv.Result.Counts)
		case jv.Result.Energy != nil:
			fmt.Printf("%-7s on %-15s %5.1f ms  bits %v  energy %v\n",
				jv.Name, jv.Backend, jv.ElapsedMs, jv.Result.Bits, *jv.Result.Energy)
		}
	}

	// 3. Resubmit the Bell circuit: the compile pipeline is skipped.
	fmt.Println()
	rerun := await(submit(qserv.SubmitRequest{Name: "bell", CQASM: bell, Backend: "perfect", Shots: 1024}))
	fmt.Printf("resubmission cache hit: %v (%.1f ms)\n", rerun.CacheHit, rerun.ElapsedMs)

	// 4. Operator view: the Prometheus exposition.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := obs.ParseText(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	hits := m[`qserv_compile_cache_ops_total{level="full",op="hit"}`]
	misses := m[`qserv_compile_cache_ops_total{level="full",op="miss"}`]
	fmt.Printf("\n/metrics: %.0f submitted, %.0f done, queue depth %.0f, cache hit rate %.0f%%\n",
		m["qserv_jobs_submitted_total"], obs.Sum(m, "qserv_jobs_completed_total", `status="done"`),
		obs.Sum(m, "qserv_queue_depth"), 100*hits/max(hits+misses, 1))
	for _, b := range []string{"perfect", "superconducting", "annealer"} {
		fmt.Printf("  %-15s %.0f jobs, busy %.1f ms\n", b,
			m[`qserv_jobs_completed_total{backend="`+b+`",status="done"}`],
			1e3*m[`qserv_worker_busy_seconds_total{backend="`+b+`"}`])
	}
}
