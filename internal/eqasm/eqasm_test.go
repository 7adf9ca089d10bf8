package eqasm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/compiler"
)

func scheduleBell(t *testing.T) (*compiler.Schedule, *compiler.Platform) {
	t.Helper()
	p := compiler.Superconducting()
	dec, err := compiler.Decompose(circuit.Bell().MeasureAll(), p)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := compiler.ScheduleCircuit(dec, p, compiler.ASAP)
	if err != nil {
		t.Fatal(err)
	}
	return sched, p
}

func TestAssembleBell(t *testing.T) {
	sched, p := scheduleBell(t)
	prog, err := Assemble(sched, p)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumQubits != 2 {
		t.Errorf("qubits = %d", prog.NumQubits)
	}
	events, err := prog.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	// The timeline must contain a cz and a measz, in causal order.
	var czCycle, measCycle = -1, -1
	for _, ev := range events {
		switch ev.Op {
		case "cz":
			czCycle = ev.Cycle
		case "measz":
			measCycle = ev.Cycle
		}
	}
	if czCycle < 0 || measCycle < 0 {
		t.Fatalf("missing ops in timeline: %+v", events)
	}
	if measCycle <= czCycle {
		t.Errorf("measurement at %d not after cz at %d", measCycle, czCycle)
	}
	// Timeline cycles must match the schedule makespan bound.
	for _, ev := range events {
		if ev.Cycle < 0 || ev.Cycle >= sched.Makespan {
			t.Errorf("event %v outside makespan %d", ev, sched.Makespan)
		}
	}
}

func TestAssembleMergesParallelOps(t *testing.T) {
	p := compiler.Superconducting()
	c := circuit.New("par", 4)
	for q := 0; q < 4; q++ {
		c.Add("x90", []int{q})
	}
	sched, err := compiler.ScheduleCircuit(c, p, compiler.ASAP)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(sched, p)
	if err != nil {
		t.Fatal(err)
	}
	// All four x90 start at cycle 0 with identical params: one SMIS with
	// 4 qubits plus one bundle with one op.
	var smisCount, bundleCount int
	for _, in := range prog.Instrs {
		switch i := in.(type) {
		case SMIS:
			smisCount++
			if len(i.Qubits) != 4 {
				t.Errorf("mask holds %d qubits, want 4", len(i.Qubits))
			}
		case Bundle:
			bundleCount++
			if len(i.Ops) != 1 {
				t.Errorf("bundle has %d ops, want 1", len(i.Ops))
			}
		}
	}
	if smisCount != 1 || bundleCount != 1 {
		t.Errorf("smis=%d bundles=%d, want 1 and 1", smisCount, bundleCount)
	}
}

func TestAssembleRejectsNonPrimitive(t *testing.T) {
	p := compiler.Superconducting()
	c := circuit.New("bad", 2).H(0)
	sched, err := compiler.ScheduleCircuit(c, p, compiler.ASAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(sched, p); err == nil {
		t.Error("non-primitive gate assembled")
	}
}

func TestMaskRegisterReuse(t *testing.T) {
	a := newMaskAlloc[int](2)
	r1, fresh1 := a.get([]int{0})
	if !fresh1 {
		t.Error("first get should be fresh")
	}
	r2, _ := a.get([]int{1, 2})
	if r1 == r2 {
		t.Error("distinct keys share a register")
	}
	r1b, fresh := a.get([]int{0})
	if fresh || r1b != r1 {
		t.Error("repeat get should hit cache")
	}
	// Third distinct key evicts FIFO.
	a.get([]int{1})
	_, freshA := a.get([]int{0})
	if !freshA {
		t.Error("evicted key should be fresh again")
	}
}

func TestTimelineUseBeforeSet(t *testing.T) {
	p := &Program{NumQubits: 2, Instrs: []Instr{
		Bundle{PreWait: 0, Ops: []QOp{{Name: "x90", Reg: 0}}},
	}}
	if _, err := p.Timeline(); err == nil {
		t.Error("use-before-set accepted")
	}
}

func TestTimelineRegisterBounds(t *testing.T) {
	p := &Program{NumQubits: 2, Instrs: []Instr{SMIS{Reg: NumSRegs, Qubits: []int{0}}}}
	if _, err := p.Timeline(); err == nil {
		t.Error("out-of-range s register accepted")
	}
	p2 := &Program{NumQubits: 2, Instrs: []Instr{SMIT{Reg: NumTRegs, Pairs: [][2]int{{0, 1}}}}}
	if _, err := p2.Timeline(); err == nil {
		t.Error("out-of-range t register accepted")
	}
}

func TestTimelineQubitBounds(t *testing.T) {
	p := &Program{NumQubits: 2, Instrs: []Instr{
		SMIS{Reg: 0, Qubits: []int{5}},
		Bundle{PreWait: 0, Ops: []QOp{{Name: "x90", Reg: 0}}},
	}}
	if _, err := p.Timeline(); err == nil {
		t.Error("out-of-range qubit accepted")
	}
}

// A negative bundle pre-interval built in code is rejected like a
// negative qwait (the parser already refuses "bs -1"), naming the
// instruction, rather than giving its pulses negative start times.
func TestTimelineRejectsNegativePreWait(t *testing.T) {
	p := &Program{NumQubits: 2, Instrs: []Instr{
		SMIS{Reg: 0, Qubits: []int{0}},
		Bundle{PreWait: 2, Ops: []QOp{{Name: "x90", Reg: 0}}},
		Bundle{PreWait: -1, Ops: []QOp{{Name: "y90", Reg: 0}}},
	}}
	_, err := p.Timeline()
	if err == nil || !strings.Contains(err.Error(), "instr 2") || !strings.Contains(err.Error(), "pre-interval") {
		t.Fatalf("negative pre-interval: err = %v, want an error naming instr 2", err)
	}
	p.Instrs[2] = Bundle{PreWait: 0, Ops: []QOp{{Name: "y90", Reg: 0}}}
	events, err := p.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Cycle != 2 || events[1].Cycle != 2 {
		t.Errorf("events %+v, want x90 and y90 both at cycle 2", events)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	sched, p := scheduleBell(t)
	prog, err := Assemble(sched, p)
	if err != nil {
		t.Fatal(err)
	}
	text := prog.String()
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, text)
	}
	ev1, err := prog.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := back.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("round trip changed event count %d → %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		a, b := ev1[i], ev2[i]
		if a.Cycle != b.Cycle || a.Op != b.Op || len(a.Qubits) != len(b.Qubits) {
			t.Errorf("event %d changed: %+v vs %+v", i, a, b)
		}
	}
}

// Property: assembling any random scheduled circuit yields a timeline
// whose event count equals the scheduled gate count (no op lost or
// duplicated) and whose cycles are monotonically compatible with the
// schedule.
func TestAssembleProperty(t *testing.T) {
	p := compiler.Superconducting()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.RandomCircuit(4, 3, rng)
		dec, err := compiler.Decompose(c, p)
		if err != nil {
			return false
		}
		sched, err := compiler.ScheduleCircuit(dec, p, compiler.ASAP)
		if err != nil {
			return false
		}
		prog, err := Assemble(sched, p)
		if err != nil {
			return false
		}
		events, err := prog.Timeline()
		if err != nil {
			return false
		}
		// Count gate instances in events (masks may merge several gates
		// into one event).
		gateInstances := 0
		for _, ev := range events {
			if ev.TwoQ {
				gateInstances += len(ev.Qubits) / 2
			} else {
				gateInstances += len(ev.Qubits)
			}
		}
		return gateInstances == len(sched.Gates)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"smis s0, {0}\n",                     // missing qubits header
		"# qubits: 2\nnope s0, {0}\n",        // unknown instr
		"# qubits: 2\nsmis x0, {0}\n",        // bad register kind
		"# qubits: 2\nsmis s0, 0\n",          // missing braces
		"# qubits: 2\nqwait -3\n",            // negative wait
		"# qubits: 2\nbs 0\n",                // bundle without ops
		"# qubits: 2\nsmit t0, {(0 1)}\n",    // malformed pair
		"# qubits: 2\nbs 0 x90 s0, notnum\n", // bad param
		"# qubits: -2\nqwait 1\n",            // bad header
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestInstrStrings(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{SMIS{Reg: 3, Qubits: []int{0, 2}}, "smis s3, {0, 2}"},
		{SMIT{Reg: 1, Pairs: [][2]int{{0, 1}}}, "smit t1, {(0, 1)}"},
		{QWait{Cycles: 7}, "qwait 7"},
		{Bundle{PreWait: 2, Ops: []QOp{{Name: "cz", TwoQ: true, Reg: 1}}}, "bs 2 cz t1"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	op := QOp{Name: "rz", Reg: 0, Params: []float64{0.5}}
	if !strings.HasPrefix(op.String(), "rz s0, 0.5") {
		t.Errorf("param op string = %q", op.String())
	}
}
