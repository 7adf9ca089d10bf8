package accel

import (
	"math"
	"testing"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/openql"
	"repro/internal/qubo"
)

func TestHostOffloadCircuit(t *testing.T) {
	h := DefaultSystem(4, 1)
	p := openql.NewProgram("bell", 2)
	p.AddKernel(openql.NewKernel("k", 2).H(0).CNOT(0, 1).MeasureAll())
	out, err := h.Offload(CircuitTask{Program: p, Shots: 500})
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := out.(*core.Report)
	if !ok {
		t.Fatalf("unexpected result type %T", out)
	}
	if rep.Result.Shots != 500 {
		t.Error("shots lost")
	}
	if log := h.Dispatches(); len(log) != 1 || log[0].TaskKind != "quantum-circuit" {
		t.Errorf("dispatch log wrong: %+v", log)
	}
}

func TestHostOffloadAnneal(t *testing.T) {
	h := DefaultSystem(2, 2)
	q := qubo.New(3)
	q.Set(0, 0, -1)
	q.Set(1, 1, -1)
	q.Set(0, 1, 3)
	out, err := h.Offload(AnnealTask{Q: q})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := out.(*anneal.Result)
	if !ok {
		t.Fatalf("unexpected result type %T", out)
	}
	_, wantE := q.BruteForce()
	if math.Abs(res.Energy-wantE) > 1e-9 {
		t.Errorf("annealer energy %v, want %v", res.Energy, wantE)
	}
}

func TestHostOffloadClassical(t *testing.T) {
	h := DefaultSystem(2, 3)
	out, err := h.Offload(ClassicalTask{Name: "sum", F: func() (interface{}, error) {
		return 41 + 1, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if out.(int) != 42 {
		t.Error("classical task result wrong")
	}
}

func TestHostRejectsUnknownTask(t *testing.T) {
	h := NewHost()
	if _, err := h.Offload(ClassicalTask{F: func() (interface{}, error) { return nil, nil }}); err == nil {
		t.Error("empty host accepted a task")
	}
}

func TestAcceleratorsListing(t *testing.T) {
	h := DefaultSystem(2, 4)
	names := h.Accelerators()
	if len(names) != 4 {
		t.Fatalf("accelerators = %v", names)
	}
}

func TestDigitalAnnealerPreferredWhenFirst(t *testing.T) {
	h := NewHost()
	h.Register(&AnnealAccelerator{Digital: true, DA: anneal.DigitalAnnealerOptions{Seed: 5, Steps: 2000}})
	q := qubo.New(4)
	q.Set(0, 0, -2)
	out, err := h.Offload(AnnealTask{Q: q})
	if err != nil {
		t.Fatal(err)
	}
	if log := h.Dispatches(); log[0].Accelerator != "digital-annealer" {
		t.Errorf("dispatched to %s", log[0].Accelerator)
	}
	if out.(*anneal.Result).Bits[0] != 1 {
		t.Error("wrong solution")
	}
}

func TestDispatchTiming(t *testing.T) {
	h := DefaultSystem(2, 9)
	_, _ = h.Offload(ClassicalTask{Name: "noop", F: func() (interface{}, error) { return nil, nil }})
	if log := h.Dispatches(); len(log) != 1 || log[0].Elapsed < 0 {
		t.Error("dispatch timing not recorded")
	}
}
