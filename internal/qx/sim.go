package qx

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/quantum"
)

// Simulator executes circuits on perfect or realistic qubits. It mirrors
// the QX engine of the paper: the micro-architecture sends instructions,
// the simulator executes them, measures qubit states and returns results.
// The actual execution strategy is delegated to a pluggable Engine; the
// Simulator owns the run configuration (noise model, fusion flag, PRNG).
//
// A Simulator is not safe for concurrent use (it owns the PRNG); create
// one per goroutine, or use RunParallel, which fans shots out over
// internally-created per-goroutine simulators. Input circuits are never
// mutated and may be shared across simulators. See the package comment
// for the full concurrency contract.
type Simulator struct {
	// Noise selects realistic-qubit execution; nil means perfect qubits.
	Noise *NoiseModel
	// EnableFusion fuses runs of consecutive single-qubit gates on the
	// same qubit into one matrix before application (perfect mode only;
	// with noise each physical gate must see its own error channel).
	EnableFusion bool
	// Engine pins the execution engine; nil runs Auto. Engines are
	// stateless and may be shared.
	Engine Engine
	// KernelWorkers caps amplitude-kernel parallelism for engine-created
	// states: 0 sizes it to the machine, 1 keeps kernels serial. Callers
	// that already run many simulators concurrently (worker pools,
	// parallel shot batches) should budget this so job-level and
	// amplitude-level parallelism do not multiply into oversubscription;
	// RunParallel sets 1 on its own shot workers automatically.
	KernelWorkers int

	seed int64
	rng  *rand.Rand
}

// rngPool holds the PRNGs of released simulators. A math/rand source is
// about 5 KB; reseeding a recycled one gives exactly the stream a fresh
// rand.NewSource(seed) would, without allocating it.
var rngPool sync.Pool

// New returns a perfect-qubit simulator seeded deterministically, backed
// by the auto engine. Its PRNG is recycled from a released simulator
// when one is available (see Release).
func New(seed int64) *Simulator {
	rng, _ := rngPool.Get().(*rand.Rand)
	if rng == nil {
		rng = rand.New(rand.NewSource(seed))
	} else {
		rng.Seed(seed)
	}
	return &Simulator{seed: seed, rng: rng}
}

// Release hands the simulator's PRNG back for reuse by a later New. It is
// the simulator's last use: neither it nor a *rand.Rand taken from Rand
// may be used afterwards. Releasing is optional; an unreleased PRNG is
// simply garbage collected.
func (s *Simulator) Release() {
	if s.rng != nil {
		rngPool.Put(s.rng)
		s.rng = nil
	}
}

// NewWithEngine returns a perfect-qubit simulator backed by the given
// engine (nil selects auto).
func NewWithEngine(seed int64, e Engine) *Simulator {
	s := New(seed)
	s.Engine = e
	return s
}

// NewNoisy returns a realistic-qubit simulator with the given noise model.
func NewNoisy(seed int64, noise *NoiseModel) *Simulator {
	s := New(seed)
	s.Noise = noise
	return s
}

// NewNoisyWithEngine returns a realistic-qubit simulator backed by the
// given engine (nil selects auto).
func NewNoisyWithEngine(seed int64, noise *NoiseModel, e Engine) *Simulator {
	s := NewNoisy(seed, noise)
	s.Engine = e
	return s
}

// Rand exposes the simulator PRNG (for callers that interleave their own
// sampling deterministically).
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Seed returns the seed the simulator was constructed with; all PRNG
// streams — including RunParallel's per-worker seeds — derive from it.
func (s *Simulator) Seed() int64 { return s.seed }

func (s *Simulator) engine() Engine {
	if s.Engine != nil {
		return s.Engine
	}
	return Auto()
}

func (s *Simulator) env() *ExecEnv {
	return &ExecEnv{Rng: s.rng, Noise: s.Noise, Fusion: s.EnableFusion, KernelWorkers: s.KernelWorkers}
}

// RunState executes the circuit once and returns the final state vector.
// Measurement gates collapse the state. Intended for perfect-qubit
// application development where the full state is the artefact of
// interest. It takes a valid circuit; circuits are checked where they are
// built or parsed.
func (s *Simulator) RunState(c *circuit.Circuit) (*quantum.State, error) {
	if err := validate(c); err != nil {
		return nil, err
	}
	return s.engine().RunState(c, s.env())
}

// validate vets a circuit for execution: at least one qubit, which every
// engine's state and outcome encoding needs.
func validate(c *circuit.Circuit) error {
	if c.NumQubits < 1 {
		return fmt.Errorf("qx: circuit %q has %d qubits, need at least 1", c.Name, c.NumQubits)
	}
	return nil
}

// Run executes the circuit for the given number of shots and aggregates
// measured outcomes. If the circuit contains no measurement at all, every
// qubit is measured at the end of each shot. It is RunParallel with one
// worker: a single batch on this simulator's PRNG. It takes a valid
// circuit; circuits are checked where they are built or parsed.
func (s *Simulator) Run(c *circuit.Circuit, shots int) (*Result, error) {
	return s.RunParallel(c, shots, 1)
}

// run executes a validated circuit's shots as one batch on the engine
// and stamps the result's wall time.
func (s *Simulator) run(c *circuit.Circuit, shots int) (*Result, error) {
	start := time.Now()
	res, err := s.engine().Run(c, shots, s.env())
	if res != nil {
		res.ElapsedNs = time.Since(start).Nanoseconds()
		res.Batches = 1
	}
	return res, err
}

// RunParallel executes the circuit's shots split across worker
// goroutines, each running on its own Simulator with this simulator's
// configuration and a derived seed. workers <= 0 sizes the pool to the
// machine's cores. With more than one worker, each call draws a fresh
// batch seed from the simulator's PRNG, so repeated calls produce
// independent batches (like repeated Run calls) while staying
// deterministic from the construction seed; with one, it is Run. It
// takes a valid circuit; circuits are checked where they are built or
// parsed.
//
// The merged counts are deterministic for a fixed (seed, workers) pair
// but differ from a serial Run with the same seed: each worker draws from
// its own PRNG stream. Use Run when cross-engine or cross-run count
// equality matters; use RunParallel when wall-clock matters. Shot workers
// run their amplitude kernels serially — shot-level parallelism already
// saturates the cores, so the two levels never multiply.
func (s *Simulator) RunParallel(c *circuit.Circuit, shots, workers int) (*Result, error) {
	if err := validate(c); err != nil {
		return nil, err
	}
	if shots <= 0 {
		return nil, fmt.Errorf("qx: shots must be positive, got %d", shots)
	}
	workers = shotWorkers(workers, shots)
	if workers <= 1 {
		return s.run(c, shots)
	}
	start := time.Now()
	batchSeed := s.rng.Int63()
	results := make([]*Result, workers)
	errs := make([]error, workers)
	base, extra := shots/workers, shots%workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := base
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			sub := New(workerSeed(batchSeed, w))
			sub.Noise, sub.EnableFusion, sub.Engine, sub.KernelWorkers = s.Noise, s.EnableFusion, s.Engine, 1
			results[w], errs[w] = sub.run(c, n)
			sub.Release()
		}(w, n)
	}
	wg.Wait()
	merged := &Result{NumQubits: c.NumQubits, Shots: shots, Counts: map[int]int{}}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
		//qlint:nondeterministic-ok order-independent: commutative integer += into the merged map
		for idx, count := range results[w].Counts {
			merged.Counts[idx] += count
		}
		//qlint:nondeterministic-ok order-independent: commutative integer += into the merged map
		for bits, count := range results[w].WideCounts {
			if merged.WideCounts == nil {
				merged.WideCounts = map[string]int{}
			}
			merged.WideCounts[bits] += count
		}
		merged.GateErrorsInjected += results[w].GateErrorsInjected
	}
	merged.ElapsedNs = time.Since(start).Nanoseconds()
	merged.Batches = workers
	return merged, nil
}

// workerSeed derives a distinct deterministic seed per shot-batch worker
// from the batch seed (odd multiplier keeps the streams unique).
func workerSeed(batchSeed int64, w int) int64 {
	return batchSeed + int64(w+1)*2654435761
}

// SampleExpectation estimates the expectation of f over measured basis
// states using the given number of shots.
func (s *Simulator) SampleExpectation(c *circuit.Circuit, shots int, f func(idx int) float64) (float64, error) {
	res, err := s.Run(c, shots)
	if err != nil {
		return 0, err
	}
	// Accumulate in sorted index order: float addition is not
	// associative, so summing in map order would wobble the low bits of
	// the estimate between runs of the same seed.
	idxs := make([]int, 0, len(res.Counts))
	for idx := range res.Counts {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	var acc float64
	for _, idx := range idxs {
		acc += f(idx) * float64(res.Counts[idx])
	}
	return acc / float64(res.Shots), nil
}
