package qserv

import (
	"context"
	"fmt"
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
			// the job's key.
			stack, err := backend.resolveStack(&job.Req, nil)
			if err != nil {
				t.Fatal(err)
			}
			cached, hit, err := s.Cache().GetOrCompile(cacheKey(stack.CompileFingerprint(), canonicalText(prog)),
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
