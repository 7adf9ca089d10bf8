package microarch

import (
	"math"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/eqasm"
	"repro/internal/qx"
)

// compileToEqasm runs the full front end: decompose → schedule → assemble.
func compileToEqasm(t *testing.T, c *circuit.Circuit, p *compiler.Platform) *eqasm.Program {
	t.Helper()
	dec, err := compiler.Decompose(c, p)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := compiler.ScheduleCircuit(dec, p, compiler.ASAP)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eqasm.Assemble(sched, p)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestExecuteBellEndToEnd(t *testing.T) {
	p := compiler.Superconducting()
	prog := compileToEqasm(t, circuit.Bell().MeasureAll(), p)
	m := New(SuperconductingConfig(), qx.New(7))
	report, err := m.Execute(prog, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if report.Result == nil {
		t.Fatal("no quantum result")
	}
	p00 := report.Result.Probability(0)
	p11 := report.Result.Probability(3)
	if math.Abs(p00-0.5) > 0.05 || math.Abs(p11-0.5) > 0.05 {
		t.Errorf("Bell through microarch: p00=%v p11=%v", p00, p11)
	}
	if len(report.Trace.Pulses) == 0 {
		t.Error("no pulses traced")
	}
	if report.Trace.TotalNs <= 0 {
		t.Error("no time elapsed")
	}
}

func TestPulseTimingPrecision(t *testing.T) {
	p := compiler.Superconducting()
	c := circuit.New("seq", 1)
	c.Add("x90", []int{0})
	c.Add("x90", []int{0})
	prog := compileToEqasm(t, c, p)
	m := New(SuperconductingConfig(), nil)
	report, err := m.Execute(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Trace.Pulses) != 2 {
		t.Fatalf("pulses = %d, want 2", len(report.Trace.Pulses))
	}
	// Second x90 must start exactly one cycle (20 ns) after the first.
	if report.Trace.Pulses[0].StartNs != 0 || report.Trace.Pulses[1].StartNs != 20 {
		t.Errorf("pulse starts %d, %d; want 0, 20",
			report.Trace.Pulses[0].StartNs, report.Trace.Pulses[1].StartNs)
	}
}

func TestRetargetingChangesOnlyTiming(t *testing.T) {
	// The same eQASM program executes on both technologies; only the
	// microcode config differs (the paper's key retargeting claim).
	scPlat := compiler.Superconducting()
	c := circuit.Bell().MeasureAll()
	prog := compileToEqasm(t, c, scPlat)

	sc := New(SuperconductingConfig(), qx.New(3))
	semi := New(SemiconductingConfig(), qx.New(3))
	rsc, err := sc.Execute(prog, 500)
	if err != nil {
		t.Fatal(err)
	}
	rsemi, err := semi.Execute(prog, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Same measurement statistics (same seed, same program)...
	if rsc.Result.Counts[0] != rsemi.Result.Counts[0] {
		t.Errorf("retargeting changed results: %v vs %v", rsc.Result.Counts, rsemi.Result.Counts)
	}
	// ...but different wall-clock: semiconducting cycles are 5× longer.
	if rsemi.Trace.TotalNs <= rsc.Trace.TotalNs {
		t.Errorf("semiconducting (%d ns) should be slower than superconducting (%d ns)",
			rsemi.Trace.TotalNs, rsc.Trace.TotalNs)
	}
	// Codewords must come from the respective tables.
	if rsc.Trace.Pulses[0].Codeword >= 100 {
		t.Error("superconducting trace uses semiconducting codewords")
	}
	if rsemi.Trace.Pulses[0].Codeword < 100 {
		t.Error("semiconducting trace uses superconducting codewords")
	}
}

func TestMissingMicrocode(t *testing.T) {
	cfg := &Config{Name: "tiny", CycleTimeNs: 10, Microcode: map[string][]MicroOp{}}
	prog := &eqasm.Program{NumQubits: 1, Instrs: []eqasm.Instr{
		eqasm.SMIS{Reg: 0, Qubits: []int{0}},
		eqasm.Bundle{PreWait: 0, Ops: []eqasm.QOp{{Name: "x90", Reg: 0}}},
	}}
	m := New(cfg, nil)
	if _, err := m.Execute(prog, 0); err == nil {
		t.Error("missing microcode accepted")
	}
}

func TestChannelUtilization(t *testing.T) {
	p := compiler.Superconducting()
	c := circuit.New("u", 2)
	c.Add("x90", []int{0})
	c.Add("cz", []int{0, 1})
	prog := compileToEqasm(t, c, p)
	m := New(SuperconductingConfig(), nil)
	report, err := m.Execute(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	mw := report.Trace.Utilization(ChannelMicrowave)
	flux := report.Trace.Utilization(ChannelFlux)
	if mw <= 0 || flux <= 0 {
		t.Errorf("utilizations mw=%v flux=%v should be positive", mw, flux)
	}
	// One 20 ns mw pulse, one cz = 2 pulses × 40 ns (both qubits);
	// total 60 ns: mw busy 20, flux busy 80.
	if report.Trace.ChannelBusyNs[ChannelMicrowave] != 20 {
		t.Errorf("mw busy = %d", report.Trace.ChannelBusyNs[ChannelMicrowave])
	}
	if report.Trace.ChannelBusyNs[ChannelFlux] != 80 {
		t.Errorf("flux busy = %d", report.Trace.ChannelBusyNs[ChannelFlux])
	}
}

func TestQueueOverflow(t *testing.T) {
	cfg := SuperconductingConfig()
	cfg.QueueDepth = 1
	// A parametric pulse train would need 2 queue slots on the same
	// qubit within one event: build via semiconducting cz (2 micro-ops).
	semi := SemiconductingConfig()
	semi.QueueDepth = 1
	prog := &eqasm.Program{NumQubits: 2, Instrs: []eqasm.Instr{
		eqasm.SMIT{Reg: 0, Pairs: [][2]int{{0, 1}}},
		eqasm.Bundle{PreWait: 0, Ops: []eqasm.QOp{{Name: "cz", TwoQ: true, Reg: 0}}},
	}}
	m := New(semi, nil)
	if _, err := m.Execute(prog, 0); err == nil {
		t.Error("queue overflow not detected")
	}
}

func TestNoisyBackendThroughMicroarch(t *testing.T) {
	p := compiler.Superconducting()
	prog := compileToEqasm(t, circuit.GHZ(4).MeasureAll(), p)
	m := New(SuperconductingConfig(), qx.NewNoisy(5, qx.Depolarizing(0.02)))
	report, err := m.Execute(prog, 400)
	if err != nil {
		t.Fatal(err)
	}
	good := report.Result.Counts[0] + report.Result.Counts[15]
	if good == 400 {
		t.Error("realistic qubits produced no errors")
	}
	if good < 200 {
		t.Errorf("too many errors: %d/400 good", good)
	}
}

func TestBackendCompactionRemapsOutcomes(t *testing.T) {
	// A program touching a few qubits of a chip must return outcomes in
	// the chip's physical bit positions while simulating just the
	// touched qubits internally — as bitstrings once the chip is wider
	// than 63 qubits, whether the touched qubits fit an int index or not.
	span := func(lo, hi int) []int {
		var qs []int
		for q := lo; q < hi; q++ {
			qs = append(qs, q)
		}
		return qs
	}
	for _, tc := range []struct {
		chip, flip int
		measured   []int
	}{
		{17, 3, []int{3, 9}},
		{70, 69, []int{0, 69}},
		{70, 69, append(span(0, 65), 69)},
	} {
		prog := &eqasm.Program{NumQubits: tc.chip, Instrs: []eqasm.Instr{
			eqasm.SMIS{Reg: 0, Qubits: []int{tc.flip}},
			eqasm.Bundle{PreWait: 0, Ops: []eqasm.QOp{{Name: "x90", Reg: 0}}},
			eqasm.Bundle{PreWait: 1, Ops: []eqasm.QOp{{Name: "x90", Reg: 0}}},
			eqasm.SMIS{Reg: 1, Qubits: tc.measured},
			eqasm.Bundle{PreWait: 1, Ops: []eqasm.QOp{{Name: "measz", Reg: 1}}},
		}}
		m := New(SuperconductingConfig(), qx.New(9))
		report, err := m.Execute(prog, 200)
		if err != nil {
			t.Fatal(err)
		}
		// Two x90 = X on the flipped qubit: only its bit is set.
		want := []byte(strings.Repeat("0", tc.chip))
		want[tc.chip-1-tc.flip] = '1'
		if got := report.Result.Top(2); len(got) != 1 || got[0].Bits != string(want) || got[0].Count != 200 {
			t.Errorf("%d-qubit chip, %d measured: compacted outcome remap wrong: %v", tc.chip, len(tc.measured), got)
		}
		if report.Result.NumQubits != tc.chip {
			t.Errorf("%d-qubit chip: result register size %d", tc.chip, report.Result.NumQubits)
		}
	}
}

func TestShotWorkersParallelBackend(t *testing.T) {
	p := compiler.Superconducting()
	prog := compileToEqasm(t, circuit.Bell().MeasureAll(), p)
	m := New(SuperconductingConfig(), qx.NewNoisy(7, qx.Depolarizing(0.01)))
	m.ShotWorkers = 4
	report, err := m.Execute(prog, 400)
	if err != nil {
		t.Fatal(err)
	}
	if report.Result == nil {
		t.Fatal("no quantum result")
	}
	total := 0
	for _, n := range report.Result.Counts {
		total += n
	}
	if total != 400 || report.Result.Shots != 400 {
		t.Errorf("parallel shots merged %d (Shots=%d), want 400", total, report.Result.Shots)
	}
	// Timing decode is shot-independent and must be unaffected.
	if report.Trace == nil || report.Trace.TotalNs <= 0 {
		t.Error("parallel shot execution lost the timing trace")
	}
}
