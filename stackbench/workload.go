package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"
)

const (
	// stormClients and stormThink are the closed-loop population of
	// scenarios/bind_storm.json, the repository's declared closed-loop
	// traffic: eight clients, each sending its next request 5 ms after
	// the previous result arrives. Against qservd's two workers per
	// backend they keep both workers busy and a small machine's CPUs
	// saturated.
	stormClients = 8
	stormThink   = 5 * time.Millisecond
	// maxClients bounds the clients of any workload.
	maxClients = stormClients
	// shots is the shot count of the hot and sessions jobs, the 64 of
	// scenarios/smoke.json and bind_storm.json. It also makes a GHZ job
	// that misses one of its two outcomes a 2^-63 event, so the exact
	// check never fails by chance.
	shots = 64
	// coldShots is the shot count scenarios/calibration_drift.json gives
	// its realistic-backend jobs.
	coldShots = 16
)

// request is one generated operation: the HTTP call that submits it and
// the outcome its result must show.
type request struct {
	path  string
	body  []byte
	check check
}

// check is the outcome a job's counts must show. Every generated circuit
// ends in a computational-basis state, or for GHZ in an equal
// superposition of two, so correctness is decidable without simulating
// the circuit.
type check struct {
	shots int
	want  string
	// alt, when set, is the second outcome of a GHZ state: shots may read
	// either, and both must occur.
	alt string
}

// verify reports how the counts of a finished job miss the check.
func (c check) verify(counts map[string]int) error {
	if c.alt == "" {
		if len(counts) != 1 || counts[c.want] != c.shots {
			return fmt.Errorf("outcomes %v, want all %d shots on %s", counts, c.shots, c.want)
		}
		return nil
	}
	if len(counts) != 2 || counts[c.want] == 0 || counts[c.alt] == 0 || counts[c.want]+counts[c.alt] != c.shots {
		return fmt.Errorf("outcomes %v, want %d shots split over %s and %s", counts, c.shots, c.want, c.alt)
	}
	return nil
}

// program accumulates cQASM gate lines while tracking, classically, the
// basis state they leave: x, cnot and toffoli permute basis states, and
// the phase gates it emits leave them unchanged.
type program struct {
	lines []string
	state []bool
}

func newProgram(qubits int) *program { return &program{state: make([]bool, qubits)} }

func (p *program) gate(format string, args ...any) {
	p.lines = append(p.lines, fmt.Sprintf(format, args...))
}

func (p *program) x(q int) {
	p.gate("x q[%d]", q)
	p.state[q] = !p.state[q]
}

func (p *program) cnot(c, t int) {
	p.gate("cnot q[%d], q[%d]", c, t)
	p.state[t] = p.state[t] != p.state[c]
}

func (p *program) toffoli(a, b, t int) {
	p.gate("toffoli q[%d], q[%d], q[%d]", a, b, t)
	p.state[t] = p.state[t] != (p.state[a] && p.state[b])
}

// mask flips a random subset of the qubits.
func (p *program) mask(rng *rand.Rand) {
	for q := range p.state {
		if rng.Intn(2) == 1 {
			p.x(q)
		}
	}
}

// bits renders the tracked basis state the way qserv keys counts: qubit
// 0 is the rightmost character.
func (p *program) bits() string {
	n := len(p.state)
	b := make([]byte, n)
	for q, one := range p.state {
		b[n-1-q] = '0'
		if one {
			b[n-1-q] = '1'
		}
	}
	return string(b)
}

// cqasm renders the program, measuring every qubit explicitly.
func (p *program) cqasm(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "version 1.0\nqubits %d\n.%s\n", len(p.state), name)
	for _, l := range p.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for q := range p.state {
		fmt.Fprintf(&b, "measure q[%d]\n", q)
	}
	return b.String()
}

// The circuit classes below are the ones the repository's scenarios
// name (qft, ghz, random), each built so that its outcome is known
// exactly. A class's gate sequence is fixed by its size and only its
// inputs, qubits and angles are drawn, so every circuit of one size
// costs about the same.

// qft applies the quantum Fourier transform (without the final swaps) to
// a random basis state, which leaves each qubit j in |0> + e^{iφ_j}|1>.
// It then undoes each phase with rz(-φ_j) and an h, returning every qubit
// to |0>, and ends in a random X mask. The controlled phases make it a
// dense-engine circuit that needs routing on a coupling graph.
func qft(rng *rand.Rand, qubits int) *program {
	p := newProgram(qubits)
	p.mask(rng)
	in := append([]bool(nil), p.state...)
	for j := 0; j < qubits; j++ {
		p.gate("h q[%d]", j)
		for k := j + 1; k < qubits; k++ {
			p.gate("cr q[%d], q[%d], %.17g", k, j, math.Pi/float64(int(1)<<(k-j)))
		}
	}
	for j := 0; j < qubits; j++ {
		var phi float64
		for k := j; k < qubits; k++ {
			if in[k] {
				phi += math.Pi / float64(int(1)<<(k-j))
			}
		}
		p.gate("rz q[%d], %.17g", j, -phi)
		p.gate("h q[%d]", j)
		p.state[j] = false
	}
	p.mask(rng)
	return p
}

// ghz prepares a GHZ state with a random X mask on top: every shot reads
// the mask or its complement.
func ghz(rng *rand.Rand, qubits int) (p *program, want, alt string) {
	p = newProgram(qubits)
	p.gate("h q[0]")
	for q := 1; q < qubits; q++ {
		// Tracks the all-zero branch, which the cnots leave unchanged.
		p.cnot(q-1, q)
	}
	p.mask(rng)
	want = p.bits()
	return p, want, strings.Map(func(r rune) rune { return '0' + '1' - r }, want)
}

// random stands in for the scenarios' random class: depth layers of one
// gate per qubit, cycling x, cnot, toffoli and rz at a random angle, so
// the circuit permutes basis states while the auto engine runs it on the
// dense state vector.
func random(rng *rand.Rand, qubits, depth int) *program {
	p := newProgram(qubits)
	for i := 0; i < qubits*depth; i++ {
		q := rng.Perm(qubits)
		switch i % 4 {
		case 0:
			p.x(q[0])
		case 1:
			p.cnot(q[0], q[1])
		case 2:
			p.toffoli(q[0], q[1], q[2])
		default:
			p.gate("rz q[%d], %.17g", q[0], rng.Float64()*2*math.Pi)
		}
	}
	return p
}

// workload is one traffic mix.
type workload struct {
	// prepare runs once after start-up and before warm-up; it fills the
	// state the mix relies on (compile cache entries, open sessions).
	prepare func(c *client) error
	// next draws the next request of one client's stream.
	next func(rng *rand.Rand) request
	// clients is the closed loop's population and think each client's
	// pause between a result and its next request.
	clients int
	think   time.Duration
}

var workloads = map[string]func(seed int64) *workload{
	"hot":      hotWorkload,
	"cold":     coldWorkload,
	"sessions": sessionsWorkload,
}

func submission(name, cqasm, backend string, seed int64, chk check) request {
	body, err := json.Marshal(map[string]any{
		"name": name, "cqasm": cqasm, "backend": backend, "shots": chk.shots, "seed": seed,
	})
	if err != nil {
		panic(err) // a map of strings and numbers always marshals
	}
	return request{path: "/submit", body: body, check: chk}
}

// jobSeed draws the per-job simulation seed; qserv reads 0 as "derive
// one", so it is kept non-zero.
func jobSeed(rng *rand.Rand) int64 { return rng.Int63n(math.MaxInt32) + 1 }

// hotWorkload is the cache-hot phase of scenarios/smoke.json: one
// variant each of a 5-qubit qft, an 8-qubit ghz and a 5-qubit depth-4
// random circuit, weighted 2:2:1, resubmitted to the noiseless perfect
// backend. After prepare every compile is a full-artefact cache hit, so
// the time goes to HTTP, queueing, the service's bookkeeping and the
// engines (the stabilizer for ghz, the state vector for the others).
func hotWorkload(seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	q := qft(rng, 5)
	g, want, alt := ghz(rng, 8)
	r := random(rng, 5, 4)
	pool := []request{
		submission("hot_qft", q.cqasm("hot_qft"), "perfect", jobSeed(rng), check{shots: shots, want: q.bits()}),
		submission("hot_ghz", g.cqasm("hot_ghz"), "perfect", jobSeed(rng), check{shots, want, alt}),
		submission("hot_random", r.cqasm("hot_random"), "perfect", jobSeed(rng), check{shots: shots, want: r.bits()}),
	}
	weighted := []int{0, 0, 1, 1, 2}
	return &workload{
		prepare: func(c *client) error {
			for _, r := range pool {
				if _, err := c.run(r); err != nil {
					return err
				}
			}
			return nil
		},
		next:    func(rng *rand.Rand) request { return pool[weighted[rng.Intn(len(weighted))]] },
		clients: stormClients,
		think:   stormThink,
	}
}

// coldWorkload sends 5-qubit qft circuits, the class that both
// scenarios/calibration_drift.json (on a realistic backend) and the
// cache-cold phase of scenarios/smoke.json send most, to the transmon7
// device. Two clients without think time, one per worker of the device's
// pool, keep both workers always busy. The scenarios' open-loop 25 to 30
// requests per second leave the CPUs idle between arrivals, and on a
// virtual machine the wake-up latency then dominates the tail. Their ghz
// share is left out: its latency mode sits just below qft's, so the
// median fell between the two and swung by a third from run to run.
// Every request is a circuit never seen before, as in smoke's cache-cold
// phase and after a recalibration has rotated the cache keys: both
// compile-cache levels miss, so each job runs the whole compiler
// (decompose, optimize, map onto the coupling graph, schedule, assemble
// to eQASM) and then the micro-architecture, which issues the eQASM to
// the engine.
func coldWorkload(seed int64) *workload {
	next := func(rng *rand.Rand) request {
		p := qft(rng, 5)
		// A random phase on the fresh |0> of qubit 0 is a global
		// phase: it keeps the outcome and makes the circuit, and so
		// its cache keys, unique.
		unique := fmt.Sprintf("rz q[0], %.17g", rng.Float64()*2*math.Pi)
		p.lines = append([]string{unique}, p.lines...)
		return submission("cold", p.cqasm("cold"), device, jobSeed(rng), check{shots: coldShots, want: p.bits()})
	}
	return &workload{
		// One job runs alone first: the device topology fills its
		// distance tables on first use, without a lock, so two workers
		// mapping their first circuits at once can read them half built.
		prepare: func(c *client) error {
			_, err := c.run(next(rand.New(rand.NewSource(seed))))
			return err
		},
		next:    next,
		clients: 2,
	}
}

// ansatz is a parametric program whose outcome every binding decides:
// H·Rz(kπ)·H on a qubit is X^k up to phase, a cnot ladder then permutes
// the basis state, and the $p phases only change its phase.
type ansatz struct {
	id     string
	qubits int
	ladder [][2]int
	phases int
	cqasm  string
}

func newAnsatz(rng *rand.Rand, qubits int) *ansatz {
	a := &ansatz{qubits: qubits, phases: qubits / 2}
	p := newProgram(qubits)
	for q := 0; q < qubits; q++ {
		p.gate("h q[%d]", q)
		p.gate("rz q[%d], $t%d", q, q)
		p.gate("h q[%d]", q)
	}
	for i := 0; i < 2*qubits; i++ {
		q := rng.Perm(qubits)
		a.ladder = append(a.ladder, [2]int{q[0], q[1]})
		p.cnot(q[0], q[1])
	}
	for j := 0; j < a.phases; j++ {
		p.gate("rz q[%d], $p%d", rng.Intn(qubits), j)
	}
	a.cqasm = p.cqasm("ansatz")
	return a
}

// bind draws one parameter point and the outcome it must produce.
func (a *ansatz) bind(rng *rand.Rand) request {
	values := make(map[string]float64, a.qubits+a.phases)
	p := newProgram(a.qubits)
	for q := 0; q < a.qubits; q++ {
		k := rng.Intn(4)
		values[fmt.Sprintf("t%d", q)] = float64(k) * math.Pi
		p.state[q] = k%2 == 1
	}
	for _, e := range a.ladder {
		p.cnot(e[0], e[1])
	}
	for j := 0; j < a.phases; j++ {
		values[fmt.Sprintf("p%d", j)] = rng.Float64() * 2 * math.Pi
	}
	body, err := json.Marshal(map[string]any{"values": values, "shots": shots, "seed": jobSeed(rng)})
	if err != nil {
		panic(err) // a map of strings and numbers always marshals
	}
	return request{path: "/sessions/" + a.id + "/bind", body: body, check: check{shots: shots, want: p.bits()}}
}

// sessionsWorkload is scenarios/bind_storm.json: four 6-qubit parametric
// sessions on the perfect backend, opened once up front, then a stream of
// parameter bindings spread over them. Each job patches the pinned
// artefact's bind table instead of compiling, then executes.
func sessionsWorkload(seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*ansatz, 4)
	for i := range pool {
		pool[i] = newAnsatz(rng, 6)
	}
	return &workload{
		prepare: func(c *client) error {
			for i, a := range pool {
				body, err := json.Marshal(map[string]any{
					"name": fmt.Sprintf("ansatz%d", i), "cqasm": a.cqasm, "backend": "perfect",
				})
				if err != nil {
					return err
				}
				var sess struct {
					ID string `json:"id"`
				}
				if err := c.callJSON("POST", "/sessions", body, 201, &sess); err != nil {
					return err
				}
				a.id = sess.ID
			}
			return nil
		},
		next:    func(rng *rand.Rand) request { return pool[rng.Intn(len(pool))].bind(rng) },
		clients: stormClients,
		think:   stormThink,
	}
}
