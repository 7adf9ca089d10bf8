package microarch

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/eqasm"
	"repro/internal/qx"
)

// legacyDecode is decode as it was before it built the compact circuit
// itself: gates through circuit.NewGate on physical operands, busy time
// per pulse in the trace's map, and an unconditional stable sort. It
// also reports whether the pulses came out of start order.
func legacyDecode(m *Machine, prog *eqasm.Program, events []eqasm.Event) (*Trace, []circuit.Gate, bool, error) {
	trace := &Trace{
		Config:        m.Config.Name,
		ChannelBusyNs: map[ChannelKind]int{},
		InstrCount:    len(prog.Instrs),
		EventCount:    len(events),
	}
	var gates []circuit.Gate
	queueFill := make([]int, prog.NumQubits)
	endCycle := 0
	for _, ev := range events {
		ops, ok := m.Config.Microcode[ev.Op]
		if !ok {
			return nil, nil, false, fmt.Errorf("microarch: no microcode for opcode %q on %s", ev.Op, m.Config.Name)
		}
		w := groupWidth(ev)
		for i := 0; i+w <= len(ev.Qubits); i += w {
			group := ev.Qubits[i : i+w : i+w]
			cycle := ev.Cycle
			for _, mo := range ops {
				for _, q := range group {
					p := Pulse{
						Qubit:      q,
						Codeword:   mo.Codeword,
						Channel:    mo.Channel,
						StartNs:    cycle * m.Config.CycleTimeNs,
						DurationNs: mo.DurationCycles * m.Config.CycleTimeNs,
					}
					if len(ev.Params) > 0 {
						p.Param = ev.Params[0]
					}
					trace.Pulses = append(trace.Pulses, p)
					trace.ChannelBusyNs[mo.Channel] += p.DurationNs
					queueFill[q]++
					if m.Config.QueueDepth > 0 && queueFill[q] > m.Config.QueueDepth {
						return nil, nil, false, fmt.Errorf("microarch: operation queue overflow on qubit %d", q)
					}
				}
				cycle += mo.DurationCycles
			}
			endCycle = max(endCycle, cycle)
			var (
				g   circuit.Gate
				err error
			)
			switch ev.Op {
			case "measz":
				g = circuit.Gate{Name: circuit.OpMeasure, Qubits: group[:1:1]}
			case "prepz":
				g = circuit.Gate{Name: circuit.OpPrepZ, Qubits: group[:1:1]}
			default:
				g, err = circuit.NewGate(ev.Op, group, ev.Params...)
			}
			if err != nil {
				return nil, nil, false, err
			}
			gates = append(gates, g)
		}
		for q, fill := range queueFill {
			trace.MaxQueueFill = max(trace.MaxQueueFill, fill)
			queueFill[q] = 0
		}
	}
	trace.TotalCycles = endCycle
	trace.TotalNs = endCycle * m.Config.CycleTimeNs
	byStart := func(a, b Pulse) int { return a.StartNs - b.StartNs }
	unordered := !slices.IsSortedFunc(trace.Pulses, byStart)
	slices.SortStableFunc(trace.Pulses, byStart)
	return trace, gates, unordered, nil
}

// legacyCompact is the compaction runBackend did on decoded physical
// gates: touched qubits numbered in order, operands rewritten in a copy.
func legacyCompact(prog *eqasm.Program, gates []circuit.Gate) (*circuit.Circuit, []int) {
	compactOf := make([]int, prog.NumQubits)
	for q := range compactOf {
		compactOf[q] = -1
	}
	for _, g := range gates {
		for _, q := range g.Qubits {
			compactOf[q] = 0
		}
	}
	var phys []int
	for q, c := range compactOf {
		if c == 0 {
			compactOf[q] = len(phys)
			phys = append(phys, q)
		}
	}
	c := &circuit.Circuit{Name: prog.Name, NumQubits: len(phys), Gates: make([]circuit.Gate, len(gates))}
	for i, g := range gates {
		ng := g
		ng.Qubits = make([]int, len(g.Qubits))
		for k, q := range g.Qubits {
			ng.Qubits[k] = compactOf[q]
		}
		c.Gates[i] = ng
	}
	return c, phys
}

// program builds an eQASM program over n qubits from instructions.
func program(n int, instrs ...eqasm.Instr) *eqasm.Program {
	return &eqasm.Program{Name: "decode", NumQubits: n, Instrs: instrs}
}

func ops(o ...eqasm.QOp) eqasm.Bundle { return eqasm.Bundle{PreWait: 1, Ops: o} }

// The circuit decode builds on the compact register, its pulse trace and
// the counts it yields must be those of the old decode-then-compact
// path, on a sparse register, on pulse trains that come out of start
// order, and on a chip wider than 64 qubits.
func TestDecodeMatchesLegacyCompaction(t *testing.T) {
	rz := func(reg int, theta float64) eqasm.QOp {
		return eqasm.QOp{Name: "rz", Reg: reg, Params: []float64{theta}}
	}
	sparse := program(7,
		eqasm.SMIS{Reg: 0, Qubits: []int{1, 4, 6}},
		eqasm.SMIS{Reg: 1, Qubits: []int{4}},
		eqasm.SMIT{Reg: 0, Pairs: [][2]int{{1, 4}}},
		eqasm.SMIT{Reg: 1, Pairs: [][2]int{{6, 4}}},
		ops(eqasm.QOp{Name: "prepz", Reg: 0}),
		ops(eqasm.QOp{Name: "y90", Reg: 0}),
		ops(eqasm.QOp{Name: "cz", TwoQ: true, Reg: 0}, rz(1, 0.25)),
		ops(eqasm.QOp{Name: "my90", Reg: 1}, eqasm.QOp{Name: "x90", Reg: 0}),
		ops(eqasm.QOp{Name: "cz", TwoQ: true, Reg: 1}),
		ops(rz(0, -1.5), eqasm.QOp{Name: "mx90", Reg: 1}),
		ops(eqasm.QOp{Name: "measz", Reg: 0}),
	)
	// measz on a pair register measures the first qubit of each pair:
	// qubit 67 gets pulses but no gate, so it stays off the register.
	wide := program(70,
		eqasm.SMIS{Reg: 0, Qubits: []int{2, 63, 64, 69}},
		eqasm.SMIT{Reg: 0, Pairs: [][2]int{{63, 64}, {68, 69}}},
		eqasm.SMIT{Reg: 1, Pairs: [][2]int{{64, 2}, {66, 67}}},
		ops(eqasm.QOp{Name: "x90", Reg: 0}),
		ops(eqasm.QOp{Name: "cz", TwoQ: true, Reg: 0}),
		ops(rz(0, 3.0), eqasm.QOp{Name: "y90", Reg: 0}),
		ops(eqasm.QOp{Name: "measz", TwoQ: true, Reg: 1}),
		ops(eqasm.QOp{Name: "measz", Reg: 0}),
	)
	for _, tc := range []struct {
		name      string
		cfg       *Config
		prog      *eqasm.Program
		unordered bool
	}{
		{"qubits 1,4,6 of 7", SuperconductingConfig(), sparse, false},
		{"semiconducting", SemiconductingConfig(), sparse, true},
		{"70-qubit line", SuperconductingConfig(), wide, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events, err := tc.prog.Timeline()
			if err != nil {
				t.Fatal(err)
			}
			m := New(tc.cfg, nil)
			wantTrace, wantGates, unordered, err := legacyDecode(m, tc.prog, events)
			if err != nil {
				t.Fatal(err)
			}
			if unordered != tc.unordered {
				t.Fatalf("pulses out of start order: %v, want %v", unordered, tc.unordered)
			}
			wantCircuit, wantPhys := legacyCompact(tc.prog, wantGates)
			trace, c, phys, err := m.decode(tc.prog, events)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(trace, wantTrace) {
				t.Errorf("trace differs:\n got %+v\nwant %+v", trace, wantTrace)
			}
			if !reflect.DeepEqual(c, wantCircuit) {
				t.Errorf("circuit differs:\n got %+v\nwant %+v", c, wantCircuit)
			}
			if !reflect.DeepEqual(phys, wantPhys) {
				t.Errorf("physical qubits %v, want %v", phys, wantPhys)
			}

			for _, workers := range []int{1, 3} {
				m := New(tc.cfg, qx.NewNoisy(11, qx.Depolarizing(0.05)))
				m.ShotWorkers = workers
				got, err := m.Execute(tc.prog, 300)
				if err != nil {
					t.Fatal(err)
				}
				legacy := New(tc.cfg, qx.NewNoisy(11, qx.Depolarizing(0.05)))
				legacy.ShotWorkers = workers
				want, err := legacy.runBackend(tc.prog, wantCircuit, wantPhys, 300)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Result.Counts, want.Counts) || !reflect.DeepEqual(got.Result.WideCounts, want.WideCounts) ||
					got.Result.NumQubits != want.NumQubits || got.Result.GateErrorsInjected != want.GateErrorsInjected {
					t.Errorf("%d workers: counts differ:\n got %v %v\nwant %v %v", workers,
						got.Result.Counts, got.Result.WideCounts, want.Counts, want.WideCounts)
				}
			}
		})
	}
}

// decode checks each opcode shape against the gate registry once, but
// every error the per-gate check gave keeps its text, a repeated pair
// in a later gate of an already checked shape included.
func TestDecodeErrorsMatchLegacy(t *testing.T) {
	cfg := SuperconductingConfig()
	cfg.Microcode["foo"] = []MicroOp{{Codeword: 40, DurationCycles: 1, Channel: ChannelMicrowave}}
	for _, tc := range []struct {
		name string
		prog *eqasm.Program
		want string
	}{
		{"unknown gate", program(2,
			eqasm.SMIS{Reg: 0, Qubits: []int{0, 1}},
			ops(eqasm.QOp{Name: "x90", Reg: 0}),
			ops(eqasm.QOp{Name: "foo", Reg: 0}),
		), `circuit: unknown gate "foo"`},
		{"repeated pair", program(3,
			eqasm.SMIT{Reg: 0, Pairs: [][2]int{{2, 2}}},
			ops(eqasm.QOp{Name: "cz", TwoQ: true, Reg: 0}),
		), "circuit: gate cz repeats qubit 2"},
		{"repeated pair after a checked one", program(4,
			eqasm.SMIT{Reg: 0, Pairs: [][2]int{{0, 1}, {3, 3}}},
			ops(eqasm.QOp{Name: "cz", TwoQ: true, Reg: 0}),
		), "circuit: gate cz repeats qubit 3"},
		{"arity", program(2,
			eqasm.SMIT{Reg: 0, Pairs: [][2]int{{0, 1}}},
			ops(eqasm.QOp{Name: "x90", TwoQ: true, Reg: 0}),
		), "circuit: gate x90 takes 1 qubits, got 2"},
		{"parameter count", program(1,
			eqasm.SMIS{Reg: 0, Qubits: []int{0}},
			ops(eqasm.QOp{Name: "rz", Reg: 0}),
		), "circuit: gate rz takes 1 params, got 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events, err := tc.prog.Timeline()
			if err != nil {
				t.Fatal(err)
			}
			m := New(cfg, qx.New(1))
			_, _, _, legacyErr := legacyDecode(m, tc.prog, events)
			if legacyErr == nil || legacyErr.Error() != tc.want {
				t.Fatalf("legacy decode error %v, want %q", legacyErr, tc.want)
			}
			if _, err := m.Execute(tc.prog, 10); err == nil || err.Error() != tc.want {
				t.Errorf("Execute error %v, want %q", err, tc.want)
			}
		})
	}
}
