package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// Op kinds.
const (
	OpSubmit      = "submit"
	OpOpenSession = "open_session"
	OpBind        = "bind"
)

// Op is one generated unit of traffic. Everything the runner needs to
// issue the request is materialised at generation time — payload text,
// arrival offset, per-job seed — so the workload for a (scenario, seed)
// pair is byte-reproducible and the run only adds wall-clock timing.
type Op struct {
	// Index is the op's global sequence number across the workload.
	Index int `json:"i"`
	// Kind is submit, open_session or bind.
	Kind string `json:"kind"`
	// AtMs is the arrival offset from phase start (open-loop ops;
	// closed-loop ops fire as their client lane frees up).
	AtMs float64 `json:"at_ms,omitempty"`
	// Client is the closed-loop client lane the op belongs to.
	Client int `json:"client,omitempty"`
	// ThinkMs is the closed-loop pause after this op completes.
	ThinkMs float64 `json:"think_ms,omitempty"`
	Tenant  string  `json:"tenant,omitempty"`
	Class   string  `json:"class,omitempty"`
	Name    string  `json:"name,omitempty"`
	Backend string  `json:"backend,omitempty"`
	Shots   int     `json:"shots,omitempty"`
	// Seed pins the job's PRNG walk server-side (never 0, which would
	// ask the service to derive its own).
	Seed  int64  `json:"seed,omitempty"`
	CQASM string `json:"cqasm,omitempty"`
	// Session indexes the phase's open_session op a bind targets.
	Session int `json:"session,omitempty"`
	// Values are the bind's parameter values, keyed by symbol.
	Values map[string]float64 `json:"values,omitempty"`
}

// PhaseWorkload is one phase's generated op stream.
type PhaseWorkload struct {
	Name string `json:"name"`
	// DurationMs is the phase's nominal duration (closed-loop lanes stop
	// at this deadline even with ops left).
	DurationMs int  `json:"duration_ms"`
	Closed     bool `json:"closed,omitempty"`
	Ops        []Op `json:"ops"`
}

// Workload is the fully materialised traffic of one (scenario, seed)
// pair.
type Workload struct {
	Scenario string          `json:"scenario"`
	Seed     int64           `json:"seed"`
	Phases   []PhaseWorkload `json:"phases"`
}

// Canonical renders the workload as canonical JSON bytes — the
// byte-reproducibility contract: GenerateWorkload(s, seed) yields
// identical bytes for identical inputs (encoding/json sorts the Values
// maps; every other field is ordered by construction).
func (w *Workload) Canonical() ([]byte, error) {
	return json.MarshalIndent(w, "", " ")
}

// SHA256 returns the hex digest of the canonical bytes.
func (w *Workload) SHA256() string {
	data, err := w.Canonical()
	if err != nil {
		// Workload marshalling cannot fail: plain structs and maps.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Ops returns the total op count.
func (w *Workload) Ops() int {
	n := 0
	for _, p := range w.Phases {
		n += len(p.Ops)
	}
	return n
}

// opsPerPhaseCap bounds runaway rate × duration combinations.
const opsPerPhaseCap = 100000

// derive folds parts into seed with a splitmix64-style walk, giving each
// (phase, mix, variant, op) coordinate an independent deterministic
// sub-seed.
func derive(seed int64, parts ...uint64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z ^= p + 0x9e3779b97f4a7c15
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	out := int64(z)
	if out == 0 {
		out = 1
	}
	return out
}

// weightedPick draws an index from cumulative weights.
func weightedPick(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	r := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if r < acc {
			return i
		}
	}
	return len(weights) - 1
}

// GenerateWorkload materialises the scenario's full op stream for one
// seed: per-phase arrival times (open-loop) or client lanes
// (closed-loop), tenant and mix draws, pre-rendered circuit payloads per
// variant, session ansätze and bind values. The result is
// byte-reproducible: same scenario + same seed → identical
// Canonical() bytes.
func GenerateWorkload(s *Scenario, seed int64) (*Workload, error) {
	w := &Workload{Scenario: s.Name, Seed: seed}
	tenantWeights := make([]float64, len(s.Tenants))
	for i, t := range s.Tenants {
		tenantWeights[i] = t.Weight
	}
	index := 0
	for pi, phase := range s.Phases {
		pw := PhaseWorkload{Name: phase.Name, DurationMs: phase.DurationMs}
		rng := rand.New(rand.NewSource(derive(seed, uint64(pi), 0xface)))
		var err error
		if phase.Sessions != nil {
			pw.Ops, pw.Closed, err = generateSessionPhase(s, &phase, pi, seed, rng, tenantWeights, &index)
		} else {
			pw.Ops, pw.Closed, err = generateMixPhase(s, &phase, pi, seed, rng, tenantWeights, &index)
		}
		if err != nil {
			return nil, fmt.Errorf("loadgen: scenario %s phase %s: %w", s.Name, phase.Name, err)
		}
		w.Phases = append(w.Phases, pw)
	}
	return w, nil
}

// arrivalStream yields the phase's op slots: open-loop Poisson offsets,
// or closed-loop (client, think) lanes with enough ops to outlast the
// phase deadline.
type arrivalSlot struct {
	atMs    float64
	client  int
	thinkMs float64
}

func arrivalSlots(phase *PhaseSpec, rng *rand.Rand) ([]arrivalSlot, bool) {
	if phase.Arrival.Process == ArrivalPoisson {
		var slots []arrivalSlot
		t := 0.0
		for len(slots) < opsPerPhaseCap {
			t += rng.ExpFloat64() / phase.Arrival.RatePerSec * 1000
			if t >= float64(phase.DurationMs) {
				break
			}
			slots = append(slots, arrivalSlot{atMs: t})
		}
		return slots, false
	}
	// Closed loop: each client gets a lane of ops; the runner walks the
	// lane serially (submit → await → think) until the phase deadline.
	// Generate enough ops that a fast service never starves a lane.
	think := phase.Arrival.ThinkMs
	perClient := int(float64(phase.DurationMs)/math.Max(think, 1))*2 + 8
	if perClient > opsPerPhaseCap/phase.Arrival.Clients {
		perClient = opsPerPhaseCap / phase.Arrival.Clients
	}
	var slots []arrivalSlot
	for c := 0; c < phase.Arrival.Clients; c++ {
		for k := 0; k < perClient; k++ {
			slots = append(slots, arrivalSlot{client: c, thinkMs: think})
		}
	}
	return slots, true
}

func generateMixPhase(s *Scenario, phase *PhaseSpec, pi int, seed int64, rng *rand.Rand, tenantWeights []float64, index *int) ([]Op, bool, error) {
	// Pre-render every variant's payload: repeated references are map
	// lookups, so one variant always submits byte-identical cQASM (the
	// compile-cache-hot path).
	variants := make([][]string, len(phase.Mix))
	for mi, m := range phase.Mix {
		variants[mi] = make([]string, m.Variants)
		for v := 0; v < m.Variants; v++ {
			vrng := rand.New(rand.NewSource(derive(seed, uint64(pi), uint64(mi), uint64(v))))
			text, err := BuildClassCircuit(m.Class, m.Qubits, m.Depth, v, vrng)
			if err != nil {
				return nil, false, fmt.Errorf("mix[%d] class %s: %w", mi, m.Class, err)
			}
			variants[mi][v] = text
		}
	}
	mixWeights := make([]float64, len(phase.Mix))
	for mi, m := range phase.Mix {
		mixWeights[mi] = m.Weight
	}
	slots, closed := arrivalSlots(phase, rng)
	ops := make([]Op, 0, len(slots))
	for _, slot := range slots {
		mi := weightedPick(rng, mixWeights)
		m := phase.Mix[mi]
		v := rng.Intn(m.Variants)
		ti := weightedPick(rng, tenantWeights)
		op := Op{
			Index:   *index,
			Kind:    OpSubmit,
			AtMs:    slot.atMs,
			Client:  slot.client,
			ThinkMs: slot.thinkMs,
			Tenant:  s.Tenants[ti].Name,
			Class:   m.Class,
			Name:    fmt.Sprintf("%s/%s/%s-v%d", s.Tenants[ti].Name, phase.Name, m.Class, v),
			Backend: m.Backend,
			Shots:   m.Shots,
			Seed:    derive(seed, 0x0b, uint64(*index)),
			CQASM:   variants[mi][v],
		}
		ops = append(ops, op)
		*index++
	}
	return ops, closed, nil
}

func generateSessionPhase(s *Scenario, phase *PhaseSpec, pi int, seed int64, rng *rand.Rand, tenantWeights []float64, index *int) ([]Op, bool, error) {
	ss := phase.Sessions
	ops := make([]Op, 0, ss.Count)
	type ansatz struct{ symbols []string }
	ansaetze := make([]ansatz, ss.Count)
	for k := 0; k < ss.Count; k++ {
		arng := rand.New(rand.NewSource(derive(seed, uint64(pi), 0x5e55, uint64(k))))
		text, symbols, err := sessionAnsatz(ss.Qubits, ss.Layers, arng)
		if err != nil {
			return nil, false, err
		}
		ansaetze[k] = ansatz{symbols: symbols}
		ops = append(ops, Op{
			Index:   *index,
			Kind:    OpOpenSession,
			Tenant:  s.Tenants[0].Name,
			Class:   "qaoa",
			Name:    fmt.Sprintf("%s/session-%d", phase.Name, k),
			Backend: ss.Backend,
			Shots:   ss.Shots,
			CQASM:   text,
			Session: k,
		})
		*index++
	}
	slots, closed := arrivalSlots(phase, rng)
	for _, slot := range slots {
		k := rng.Intn(ss.Count)
		ti := weightedPick(rng, tenantWeights)
		values := make(map[string]float64, len(ansaetze[k].symbols))
		for _, sym := range ansaetze[k].symbols {
			values[sym] = rng.Float64() * 2 * math.Pi
		}
		ops = append(ops, Op{
			Index:   *index,
			Kind:    OpBind,
			AtMs:    slot.atMs,
			Client:  slot.client,
			ThinkMs: slot.thinkMs,
			Tenant:  s.Tenants[ti].Name,
			Class:   "qaoa-bind",
			Name:    fmt.Sprintf("%s/%s/bind-%d", s.Tenants[ti].Name, phase.Name, *index),
			Shots:   ss.Shots,
			Seed:    derive(seed, 0x0b, uint64(*index)),
			Session: k,
			Values:  values,
		})
		*index++
	}
	return ops, closed, nil
}
