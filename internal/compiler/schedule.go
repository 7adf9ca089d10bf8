package compiler

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/circuit"
)

// Policy selects the scheduling strategy (§2.6 "scheduling of
// operations").
type Policy int

const (
	// ASAP starts every gate as early as its operands allow.
	ASAP Policy = iota
	// ALAP starts every gate as late as possible without extending the
	// ASAP makespan (useful to minimise idle decoherence before use).
	ALAP
)

func (p Policy) String() string {
	if p == ALAP {
		return "alap"
	}
	return "asap"
}

// ScheduledGate is a gate with an assigned start cycle and duration.
type ScheduledGate struct {
	Gate     circuit.Gate
	Cycle    int // start cycle
	Duration int // in cycles
}

// Schedule is a timed circuit: the output of the scheduling pass and the
// input of eQASM generation.
type Schedule struct {
	NumQubits int
	Policy    Policy
	Gates     []ScheduledGate // sorted by Cycle, stable w.r.t. input order
	Makespan  int             // total cycles
}

// ScheduleCircuit assigns start cycles to every gate of c under the
// platform's gate durations, the qubit-dependency constraint, and the
// platform's control-channel limit (MaxParallelOps). Barriers synchronise
// all qubits. Scheduled gates share their operand and parameter slices
// with c's gates.
func ScheduleCircuit(c *circuit.Circuit, p *Platform, policy Policy) (*Schedule, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if policy == ASAP {
		return scheduleASAP(c.Gates, c.NumQubits, p), nil
	}
	// ALAP: schedule the reversed gate list ASAP, then mirror the times
	// inside the same makespan.
	rev := slices.Clone(c.Gates)
	slices.Reverse(rev)
	revSched := scheduleASAP(rev, c.NumQubits, p)
	makespan := revSched.Makespan
	out := &Schedule{NumQubits: c.NumQubits, Policy: ALAP, Makespan: makespan}
	// revSched.Gates[i] corresponds to c.Gates[len-1-i].
	n := len(c.Gates)
	out.Gates = make([]ScheduledGate, n)
	for i, sg := range revSched.Gates {
		out.Gates[n-1-i] = ScheduledGate{
			Gate:     sg.Gate,
			Duration: sg.Duration,
			Cycle:    makespan - sg.Cycle - sg.Duration,
		}
	}
	sortByCycle(out.Gates)
	return out, nil
}

// sortByCycle orders scheduled gates by start cycle, stably.
func sortByCycle(gates []ScheduledGate) {
	slices.SortStableFunc(gates, func(a, b ScheduledGate) int { return a.Cycle - b.Cycle })
}

func scheduleASAP(gates []circuit.Gate, numQubits int, p *Platform) *Schedule {
	qubitFree := make([]int, numQubits) // first free cycle per qubit
	// busy[cycle] counts operations executing in that cycle, for the
	// control-channel constraint; it grows with the schedule.
	var busy []int
	out := &Schedule{NumQubits: numQubits, Policy: ASAP, Gates: make([]ScheduledGate, 0, len(gates))}
	allFree := func() int {
		max := 0
		for _, f := range qubitFree {
			if f > max {
				max = f
			}
		}
		return max
	}
	for _, g := range gates {
		dur := p.Duration(g.Name)
		var start int
		var qubits []int
		switch g.Name {
		case circuit.OpBarrier:
			// Synchronise: all qubits become free at the same cycle.
			t := allFree()
			for q := range qubitFree {
				qubitFree[q] = t
			}
			continue
		case circuit.OpMeasureAll:
			start = allFree()
			qubits = nil // occupies every qubit
		default:
			qubits = g.Qubits
			for _, q := range qubits {
				if qubitFree[q] > start {
					start = qubitFree[q]
				}
			}
			// A conditional gate additionally depends on the measurement
			// that produced its classical bit (keyed by qubit index).
			if g.HasCond && g.CondBit < len(qubitFree) && qubitFree[g.CondBit] > start {
				start = qubitFree[g.CondBit]
			}
		}
		// Control-channel limit: find the earliest start ≥ start whose
		// whole duration window has capacity.
		if p.MaxParallelOps > 0 {
			for {
				ok := true
				for t := start; t < start+dur && t < len(busy); t++ {
					if busy[t] >= p.MaxParallelOps {
						ok = false
						break
					}
				}
				if ok {
					break
				}
				start++
			}
			if end := start + dur; end > len(busy) {
				busy = append(busy, make([]int, end-len(busy))...)
			}
			for t := start; t < start+dur; t++ {
				busy[t]++
			}
		}
		end := start + dur
		if qubits == nil {
			for q := range qubitFree {
				qubitFree[q] = end
			}
		} else {
			for _, q := range qubits {
				qubitFree[q] = end
			}
		}
		if end > out.Makespan {
			out.Makespan = end
		}
		out.Gates = append(out.Gates, ScheduledGate{Gate: g, Cycle: start, Duration: dur})
	}
	sortByCycle(out.Gates)
	return out
}

// Validate checks that no two gates overlap on a qubit and the channel
// limit holds.
func (s *Schedule) Validate(p *Platform) error {
	type interval struct{ start, end, idx int }
	perQubit := map[int][]interval{}
	for i, sg := range s.Gates {
		qs := sg.Gate.Qubits
		if sg.Gate.Name == circuit.OpMeasureAll {
			qs = nil
			for q := 0; q < s.NumQubits; q++ {
				qs = append(qs, q)
			}
		}
		for _, q := range qs {
			perQubit[q] = append(perQubit[q], interval{sg.Cycle, sg.Cycle + sg.Duration, i})
		}
	}
	// Check qubits in sorted order so the reported overlap is
	// deterministic when several qubits have one.
	qubits := make([]int, 0, len(perQubit))
	for q := range perQubit {
		qubits = append(qubits, q)
	}
	sort.Ints(qubits)
	for _, q := range qubits {
		ivs := perQubit[q]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end {
				return fmt.Errorf("compiler: schedule overlap on qubit %d between gates %d and %d",
					q, ivs[i-1].idx, ivs[i].idx)
			}
		}
	}
	if p != nil && p.MaxParallelOps > 0 {
		busy := map[int]int{}
		for _, sg := range s.Gates {
			for t := sg.Cycle; t < sg.Cycle+sg.Duration; t++ {
				busy[t]++
				if busy[t] > p.MaxParallelOps {
					return fmt.Errorf("compiler: channel limit exceeded at cycle %d", t)
				}
			}
		}
	}
	return nil
}
