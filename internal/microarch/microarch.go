// Package microarch implements the quantum micro-architecture layer
// (§2.5, Figs 5–7): the classical digital control that executes eQASM.
// Instructions flow through fetch/decode into the microcode unit, which
// expands each quantum opcode into codewords; the timing control unit
// releases codewords to per-qubit operation queues at nanosecond-precise
// instants; the analogue-digital interface (ADI) turns codewords into
// pulses for the qubit chip — here, the QX simulator.
//
// Retargeting the same micro-architecture to a different quantum
// technology (superconducting → semiconducting, §3.1) only requires a
// different microcode configuration, as in the paper.
package microarch

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/circuit"
	"repro/internal/eqasm"
	"repro/internal/qx"
)

// ChannelKind distinguishes the physical control lines of the ADI.
type ChannelKind string

// Channel kinds of the analogue-digital interface.
const (
	ChannelMicrowave ChannelKind = "mw"   // single-qubit rotations
	ChannelFlux      ChannelKind = "flux" // two-qubit interactions
	ChannelMeasure   ChannelKind = "meas" // readout
)

// MicroOp is one codeword emitted by the microcode unit.
type MicroOp struct {
	Codeword       int
	DurationCycles int
	Channel        ChannelKind
}

// Config is the microcode table plus machine parameters — the
// configuration file that retargets the micro-architecture.
type Config struct {
	Name        string
	CycleTimeNs int
	// Microcode maps an eQASM opcode to its codeword sequence.
	Microcode map[string][]MicroOp
	// QueueDepth bounds each per-qubit operation queue; 0 = unbounded.
	QueueDepth int
}

// SuperconductingConfig returns the microcode table of the transmon
// control stack (Fig 6): microwave table for single-qubit ops, flux
// table for CZ, readout pulse for measurement.
func SuperconductingConfig() *Config {
	return &Config{
		Name:        "superconducting",
		CycleTimeNs: 20,
		Microcode: map[string][]MicroOp{
			"i":     {{Codeword: 0, DurationCycles: 1, Channel: ChannelMicrowave}},
			"x90":   {{Codeword: 1, DurationCycles: 1, Channel: ChannelMicrowave}},
			"mx90":  {{Codeword: 2, DurationCycles: 1, Channel: ChannelMicrowave}},
			"y90":   {{Codeword: 3, DurationCycles: 1, Channel: ChannelMicrowave}},
			"my90":  {{Codeword: 4, DurationCycles: 1, Channel: ChannelMicrowave}},
			"rz":    {{Codeword: 5, DurationCycles: 1, Channel: ChannelMicrowave}},
			"cz":    {{Codeword: 16, DurationCycles: 2, Channel: ChannelFlux}},
			"swap":  {{Codeword: 17, DurationCycles: 6, Channel: ChannelFlux}},
			"measz": {{Codeword: 32, DurationCycles: 15, Channel: ChannelMeasure}},
			"prepz": {{Codeword: 33, DurationCycles: 10, Channel: ChannelMeasure}},
		},
		QueueDepth: 64,
	}
}

// SemiconductingConfig returns the spin-qubit microcode: same opcodes,
// different codewords and much longer exchange-gate pulses — the paper's
// retargeting demonstration.
func SemiconductingConfig() *Config {
	return &Config{
		Name:        "semiconducting",
		CycleTimeNs: 100,
		Microcode: map[string][]MicroOp{
			"i":    {{Codeword: 100, DurationCycles: 1, Channel: ChannelMicrowave}},
			"x90":  {{Codeword: 101, DurationCycles: 1, Channel: ChannelMicrowave}},
			"mx90": {{Codeword: 102, DurationCycles: 1, Channel: ChannelMicrowave}},
			"y90":  {{Codeword: 103, DurationCycles: 1, Channel: ChannelMicrowave}},
			"my90": {{Codeword: 104, DurationCycles: 1, Channel: ChannelMicrowave}},
			"rz":   {{Codeword: 105, DurationCycles: 1, Channel: ChannelMicrowave}},
			// Exchange-based two-qubit gate: pulse train of 2 codewords.
			"cz":    {{Codeword: 116, DurationCycles: 2, Channel: ChannelFlux}, {Codeword: 117, DurationCycles: 2, Channel: ChannelFlux}},
			"swap":  {{Codeword: 118, DurationCycles: 8, Channel: ChannelFlux}},
			"measz": {{Codeword: 132, DurationCycles: 30, Channel: ChannelMeasure}},
			"prepz": {{Codeword: 133, DurationCycles: 20, Channel: ChannelMeasure}},
		},
		QueueDepth: 64,
	}
}

// Pulse is one analogue event emitted by the ADI.
type Pulse struct {
	Qubit      int
	Codeword   int
	Channel    ChannelKind
	StartNs    int
	DurationNs int
	Param      float64 // rotation angle for parametric codewords
}

// Trace is the cycle-accurate execution record.
type Trace struct {
	Config       string
	TotalCycles  int
	TotalNs      int
	Pulses       []Pulse
	MaxQueueFill int
	// ChannelBusyNs accumulates pulse time per channel kind.
	ChannelBusyNs map[ChannelKind]int
	InstrCount    int
	EventCount    int
}

// Utilization returns busy-time / total-time for one channel kind across
// all qubits that used it.
func (t *Trace) Utilization(kind ChannelKind) float64 {
	if t.TotalNs == 0 {
		return 0
	}
	return float64(t.ChannelBusyNs[kind]) / float64(t.TotalNs)
}

// Machine executes eQASM programs against the QX simulator backend.
type Machine struct {
	Config *Config
	// Backend runs the decoded gates; nil executes timing-only (no
	// quantum state), which the paper's stack uses for hardware
	// bring-up. Any engine-backed simulator works: the ADI only drives
	// the qx API, so swapping the execution engine (reference, optimized,
	// or a registered alternative) never touches this layer.
	Backend *qx.Simulator
	// ShotWorkers > 1 splits the per-shot quantum execution across that
	// many goroutines, each on its own derived-seed simulator (see
	// qx.Simulator.RunParallel); 0 or 1 keeps shots serial. Timing
	// decode is unaffected — it is simulated once either way.
	ShotWorkers int
}

// New returns a machine with the given microcode config and backend.
func New(cfg *Config, backend *qx.Simulator) *Machine {
	return &Machine{Config: cfg, Backend: backend}
}

// RunReport couples the timing trace with the measurement results of the
// quantum backend.
type RunReport struct {
	Trace  *Trace
	Result *qx.Result
}

// Execute runs the program for the given number of shots. Timing is
// simulated once (it is identical across shots); the quantum backend is
// sampled per shot.
func (m *Machine) Execute(prog *eqasm.Program, shots int) (*RunReport, error) {
	events, err := prog.Timeline()
	if err != nil {
		return nil, err
	}
	trace, gates, err := m.decode(prog, events)
	if err != nil {
		return nil, err
	}
	report := &RunReport{Trace: trace}
	if m.Backend != nil && shots > 0 {
		res, err := m.runBackend(prog, gates, shots)
		if err != nil {
			return nil, err
		}
		report.Result = res
	}
	return report, nil
}

// runBackend executes the decoded gate sequence on the quantum backend.
// The physical register is compacted onto the qubits the program touches
// (idle qubits stay in |0> and carry no information), which keeps the
// state-vector cost proportional to the active circuit rather than the
// full chip.
func (m *Machine) runBackend(prog *eqasm.Program, gates []circuit.Gate, shots int) (*qx.Result, error) {
	// compactOf[q] is physical qubit q's index in the compact register,
	// -1 for a qubit no gate touches; touched qubits are marked 0 first
	// and then numbered in order.
	compactOf := make([]int, prog.NumQubits)
	for q := range compactOf {
		compactOf[q] = -1
	}
	operands := 0
	for _, g := range gates {
		operands += len(g.Qubits)
		for _, q := range g.Qubits {
			compactOf[q] = 0
		}
	}
	phys := make([]int, 0, prog.NumQubits)
	for q, c := range compactOf {
		if c == 0 {
			compactOf[q] = len(phys)
			phys = append(phys, q)
		}
	}
	// The compact gates share their parameters with the decoded ones and
	// take their operands from one array.
	c := &circuit.Circuit{Name: prog.Name, NumQubits: len(phys), Gates: make([]circuit.Gate, len(gates))}
	arena := make([]int, operands)
	for i, g := range gates {
		ng := g
		if len(g.Qubits) > 0 {
			ng.Qubits, arena = arena[:len(g.Qubits):len(g.Qubits)], arena[len(g.Qubits):]
			for k, q := range g.Qubits {
				ng.Qubits[k] = compactOf[q]
			}
		}
		c.Gates[i] = ng
	}
	var (
		res *qx.Result
		err error
	)
	if m.ShotWorkers > 1 {
		res, err = m.Backend.RunParallel(c, shots, m.ShotWorkers)
	} else {
		res, err = m.Backend.Run(c, shots)
	}
	if err != nil {
		return nil, err
	}
	if len(phys) == prog.NumQubits {
		return res, nil
	}
	// Expand outcomes back to physical bit positions: int indices while
	// the physical register fits one, bitstrings (qubit 0 rightmost, as
	// qx.Result.WideCounts keys them) once it is wider than 63 qubits.
	full := &qx.Result{
		NumQubits:          prog.NumQubits,
		Shots:              res.Shots,
		Counts:             map[int]int{},
		GateErrorsInjected: res.GateErrorsInjected,
	}
	if prog.NumQubits <= 63 {
		// The compact register is narrower still, so res has no
		// WideCounts.
		for idx, count := range res.Counts {
			fullIdx := 0
			for i, q := range phys {
				if idx&(1<<uint(i)) != 0 {
					fullIdx |= 1 << uint(q)
				}
			}
			full.Counts[fullIdx] += count
		}
		return full, nil
	}
	full.WideCounts = make(map[string]int, len(res.Counts)+len(res.WideCounts))
	// Every outcome rewrites the touched positions; idle qubits stay '0'.
	bits := []byte(strings.Repeat("0", prog.NumQubits))
	for idx, count := range res.Counts {
		for i, q := range phys {
			bits[len(bits)-1-q] = '0' + byte(idx>>uint(i)&1)
		}
		full.WideCounts[string(bits)] += count
	}
	for compact, count := range res.WideCounts {
		for i, q := range phys {
			bits[len(bits)-1-q] = compact[len(compact)-1-i]
		}
		full.WideCounts[string(bits)] += count
	}
	return full, nil
}

// decode expands timeline events through the microcode unit and the
// timing control unit, producing the pulse trace and the equivalent gate
// sequence in event order. The gates' operands are runs of the events'
// operand slices.
func (m *Machine) decode(prog *eqasm.Program, events []eqasm.Event) (*Trace, []circuit.Gate, error) {
	trace := &Trace{
		Config:        m.Config.Name,
		ChannelBusyNs: map[ChannelKind]int{},
		InstrCount:    len(prog.Instrs),
		EventCount:    len(events),
	}
	nPulses, nGates := 0, 0
	for _, ev := range events {
		nPulses += len(ev.Qubits) * len(m.Config.Microcode[ev.Op])
		nGates += len(ev.Qubits) / groupWidth(ev)
	}
	trace.Pulses = make([]Pulse, 0, nPulses)
	gates := make([]circuit.Gate, 0, nGates)
	// queueFill counts the codewords queued per qubit within one event.
	queueFill := make([]int, prog.NumQubits)
	endCycle := 0
	for _, ev := range events {
		ops, ok := m.Config.Microcode[ev.Op]
		if !ok {
			return nil, nil, fmt.Errorf("microarch: no microcode for opcode %q on %s", ev.Op, m.Config.Name)
		}
		// Expand per qubit (or per pair for two-qubit ops).
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
						return nil, nil, fmt.Errorf("microarch: operation queue overflow on qubit %d", q)
					}
				}
				cycle += mo.DurationCycles
			}
			if cycle > endCycle {
				endCycle = cycle
			}
			g, err := eventGate(ev, group)
			if err != nil {
				return nil, nil, err
			}
			gates = append(gates, g)
		}
		// Queues drain as the timing control unit releases codewords.
		for q, fill := range queueFill {
			trace.MaxQueueFill = max(trace.MaxQueueFill, fill)
			queueFill[q] = 0
		}
	}
	trace.TotalCycles = endCycle
	trace.TotalNs = endCycle * m.Config.CycleTimeNs
	slices.SortStableFunc(trace.Pulses, func(a, b Pulse) int { return a.StartNs - b.StartNs })
	return trace, gates, nil
}

// groupWidth is the operand count of one gate of an event: pairs for
// two-qubit ops, single qubits otherwise.
func groupWidth(ev eqasm.Event) int {
	if ev.TwoQ {
		return 2
	}
	return 1
}

// eventGate converts a decoded event group back into an IR gate for the
// quantum backend.
func eventGate(ev eqasm.Event, group []int) (circuit.Gate, error) {
	switch ev.Op {
	case "measz":
		return circuit.Gate{Name: circuit.OpMeasure, Qubits: group[:1:1]}, nil
	case "prepz":
		return circuit.Gate{Name: circuit.OpPrepZ, Qubits: group[:1:1]}, nil
	default:
		return circuit.NewGate(ev.Op, group, ev.Params...)
	}
}
