package qserv

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/openql"
	"repro/internal/target"
)

// noisePasses is a pipeline whose suffix routes by calibration data, so
// stale prefix reuse across recalibrations would be observable as wrong
// routing. Its platform-generic prefix is identical to the default
// pipeline's, so both specs share prefix-cache entries.
const noisePasses = "decompose,optimize,map(strategy=noise),lower-swaps,optimize-lowered,schedule,assemble"

// racingProgram is a two-kernel program so the per-kernel prefix path is
// exercised (and the prefix cache holds one entry per kernel).
func racingProgram() *openql.Program {
	p := openql.NewProgram("race", 5)
	k1 := openql.NewKernel("layer", 5)
	for q := 0; q < 5; q++ {
		k1.H(q)
	}
	for q := 0; q < 4; q++ {
		k1.CNOT(q, q+1)
	}
	p.AddKernel(k1)
	k2 := openql.NewKernel("tail", 5)
	k2.CNOT(0, 4).CNOT(1, 3)
	for q := 0; q < 5; q++ {
		k2.RZ(q, 0.1*float64(q+1)).Measure(q)
	}
	p.AddKernel(k2)
	return p
}

// skewedCalibration returns the superconducting calibration with edge
// errors multiplied by f on even edges — enough skew that noise-aware
// routing decisions depend on which table the job compiled against.
func skewedCalibration(f float64) *target.Calibration {
	cal := target.Superconducting().Calibration.Clone()
	for i := range cal.Edges {
		if i%2 == 0 {
			cal.Edges[i].TwoQubitError *= f
		}
	}
	return cal
}

// TestCanonicalTextDistinguishesPrograms pins the full-cache key's
// program half: register width matters even with no kernels, kernel
// partitions key distinctly, and kernel/program names do not.
func TestCanonicalTextDistinguishesPrograms(t *testing.T) {
	if canonicalText(openql.NewProgram("a", 3)) == canonicalText(openql.NewProgram("b", 5)) {
		t.Error("zero-kernel programs of different widths must key distinctly")
	}
	split := openql.NewProgram("s", 2)
	split.AddKernel(openql.NewKernel("k1", 2).H(0))
	split.AddKernel(openql.NewKernel("k2", 2).X(0))
	joined := openql.NewProgram("j", 2)
	joined.AddKernel(openql.NewKernel("k", 2).H(0).X(0))
	if canonicalText(split) == canonicalText(joined) {
		t.Error("different kernel partitions of the same gates must key distinctly")
	}
	renamed := openql.NewProgram("other-name", 2)
	renamed.AddKernel(openql.NewKernel("zz1", 2).H(0))
	renamed.AddKernel(openql.NewKernel("zz2", 2).X(0))
	if canonicalText(split) != canonicalText(renamed) {
		t.Error("program and kernel names must not affect the key")
	}
}

// TestTwoLevelCacheConcurrentOverrides races per-job pass-spec and
// calibration overrides against the two-level compile cache under
// -race, then asserts the cache contracts exactly:
//
//   - singleflight dedup: the full-artefact cache compiles each distinct
//     (calibration, pass spec) combination once, and the prefix cache
//     compiles each kernel once — every concurrent duplicate waits.
//   - freshness: a job compiled under a calibration override produces
//     artefacts identical to an uncached ground-truth compile against
//     that calibration — prefix hits never smuggle stale suffix state
//     across a recalibration.
func TestTwoLevelCacheConcurrentOverrides(t *testing.T) {
	s := New(Config{Seed: 99, RetainJobs: -1, QueueSize: 4096})
	backend := NewStackBackend(core.NewSuperconducting(99))
	s.AddBackend(backend, 4)
	s.Start()
	defer s.Stop()

	prog := racingProgram()
	calibrations := []*target.Calibration{nil, skewedCalibration(40), skewedCalibration(0.02)}
	specs := []string{"", noisePasses}

	const rounds = 8
	var wg sync.WaitGroup
	ids := make([][]string, len(calibrations)*len(specs))
	var idsMu sync.Mutex
	for round := 0; round < rounds; round++ {
		for ci, cal := range calibrations {
			for si, spec := range specs {
				wg.Add(1)
				go func(combo int, cal *target.Calibration, spec string) {
					defer wg.Done()
					job, err := s.Submit(Request{
						Program:     prog,
						Backend:     "superconducting",
						Passes:      spec,
						Calibration: cal,
						Shots:       1,
						Seed:        7,
					})
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					if err := job.Wait(context.Background()); err != nil {
						t.Errorf("job %s: %v", job.ID, err)
						return
					}
					idsMu.Lock()
					ids[combo] = append(ids[combo], job.ID)
					idsMu.Unlock()
				}(ci*len(specs)+si, cal, spec)
			}
		}
	}
	wg.Wait()

	combos := len(calibrations) * len(specs)
	if st := s.Cache().Stats(); st.Misses != uint64(combos) {
		t.Errorf("full cache compiled %d times, want exactly %d (singleflight dedup)", st.Misses, combos)
	}
	// Both pass specs share the same platform-generic prefix and all
	// calibration variants share the gate set, so the prefix cache holds
	// exactly one entry per kernel of the program.
	if st := s.PrefixCache().Stats(); st.Misses != uint64(len(prog.Kernels)) {
		t.Errorf("prefix cache compiled %d artefacts, want exactly %d", st.Misses, len(prog.Kernels))
	} else if st.Hits == 0 {
		t.Error("prefix cache never hit despite shared prefixes across variants")
	}

	// Freshness: each combo's artefact must equal an uncached ground-truth
	// compile against its calibration.
	dev := target.Superconducting()
	for ci, cal := range calibrations {
		for si, spec := range specs {
			combo := ci*len(specs) + si
			if len(ids[combo]) == 0 {
				t.Fatalf("combo %d produced no jobs", combo)
			}
			job, ok := s.Job(ids[combo][0])
			if !ok {
				t.Fatalf("job %s vanished", ids[combo][0])
			}
			// The artefact the job ran is the full-cache entry under
			// the key admission gave the job.
			cached, hit, err := s.Cache().GetOrCompile(job.Req.key,
				func() (*openql.Compiled, error) { return nil, fmt.Errorf("job %s's artefact is not cached", job.ID) })
			if err != nil || !hit {
				t.Fatalf("combo %d: cache lookup: hit=%v err=%v", combo, hit, err)
			}
			truthDev := dev
			if cal != nil {
				truthDev = dev.WithCalibration(cal)
			}
			truth, err := core.NewStackForDevice(truthDev, 99)
			if err != nil {
				t.Fatal(err)
			}
			truth.Passes = spec
			compiled, err := truth.Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("cal=%d spec=%d", ci, si)
			if compiled.CQASM() != cached.CQASM() {
				t.Errorf("%s: cached artefact's cQASM differs from ground truth", label)
			}
			if compiled.EQASM.String() != cached.EQASM.String() {
				t.Errorf("%s: cached artefact's eQASM differs from ground truth", label)
			}
		}
	}
}

// TestResubmitsShareOneParsedProgram races resubmits of one cQASM text
// (run it under -race): admission parses the text once, every job reads
// the one memoised program, and each job's seeded counts equal those of
// the same text parsed afresh and run straight on the stack.
func TestResubmitsShareOneParsedProgram(t *testing.T) {
	const text = `version 1.0
qubits 3
.mix
h q[0]
rx q[1], 0.7
cnot q[0], q[2]
t q[2]
h q[2]
measure q[0]
measure q[1]
measure q[2]
`
	stack := core.NewPerfect(3, 1)
	s := New(Config{})
	s.AddBackend(NewStackBackend(stack), 2)
	s.Start()
	defer s.Stop()

	const clients, perClient, shots = 6, 5, 64
	jobs := make([]*Job, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				n := c*perClient + i
				j, err := s.Submit(Request{Name: "mix", CQASM: text, Shots: shots, Seed: int64(100 + n)})
				if err != nil {
					t.Error(err)
					return
				}
				jobs[n] = j
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := s.programs.stats(); st.Misses != 1 || st.Hits != uint64(len(jobs)-1) {
		t.Errorf("admission memo: %+v, want 1 parse and %d reuses", st, len(jobs)-1)
	}

	fresh, err := parseCQASM("mix", text)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := stack.Compile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	shared := jobs[0].Req.Program
	for n, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if j.Req.Program != shared || j.Req.CQASM != "" {
			t.Errorf("job %d does not carry the one memoised program in place of its text", n)
		}
		want, err := stack.RunCompiled(compiled, fresh.NumQubits, shots, int64(100+n))
		if err != nil {
			t.Fatal(err)
		}
		if got := j.Result().Report.Result.Counts; !reflect.DeepEqual(got, want.Result.Counts) {
			t.Errorf("job %d: counts %v, a freshly parsed run gives %v", n, got, want.Result.Counts)
		}
	}
	if got, want := canonicalText(shared), canonicalText(fresh); got != want {
		t.Error("the memoised program changed while its jobs ran")
	}
}
