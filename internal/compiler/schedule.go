package compiler

import (
	"cmp"
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
	// Gates are sorted by Cycle by construction, stable in input order;
	// under ALAP, gates starting in one cycle go shorter first.
	Gates    []ScheduledGate
	Makespan int // total cycles
}

// ScheduleCircuit assigns start cycles to every gate of c under the
// platform's gate durations, the qubit-dependency constraint, and the
// platform's control-channel limit (MaxParallelOps). Barriers synchronise
// all qubits. Scheduled gates share their operand and parameter slices
// with c's gates. It takes a valid circuit; circuits are checked where
// they are built or parsed.
func ScheduleCircuit(c *circuit.Circuit, p *Platform, policy Policy) (*Schedule, error) {
	slots := make([]slot, len(c.Gates))
	makespan := timeASAP(c.Gates, c.NumQubits, p, policy == ALAP, slots)
	out := &Schedule{NumQubits: c.NumQubits, Policy: policy, Makespan: makespan}
	if policy == ASAP {
		out.Gates = inCycleOrder(c.Gates, slots, nil, makespan, 0)
		return out, nil
	}
	// ALAP: the reversed gate list was timed ASAP; mirror those times
	// inside the same makespan.
	barriers := 0
	for i, s := range slots {
		if s.cycle < 0 {
			barriers++
			continue
		}
		slots[i].cycle = makespan - s.cycle - s.dur
	}
	// Mirroring a schedule sorted by start cycle has always ordered the
	// gates of one ALAP cycle shorter first, and kept one zero-value gate
	// at cycle 0 in place of each barrier; the pinned compile artefacts
	// hold both.
	out.Gates = inCycleOrder(c.Gates, slots, byDuration(slots), makespan, barriers)
	return out, nil
}

// byDuration returns the gate indices ordered by duration, stable in
// input order (a counting sort while the durations are dense).
func byDuration(slots []slot) []int {
	maxDur := 0
	for _, s := range slots {
		maxDur = max(maxDur, s.dur)
	}
	if !dense(maxDur, len(slots)) {
		order := make([]int, len(slots))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(slots[a].dur, slots[b].dur) })
		return order
	}
	// next[d] is the position of the next gate of duration d.
	next := make([]int, maxDur+2)
	for _, s := range slots {
		next[s.dur+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	order := make([]int, len(slots))
	for i, s := range slots {
		order[next[s.dur]] = i
		next[s.dur]++
	}
	return order
}

// slot is one gate's place in a schedule: its start cycle (-1 for a
// barrier, which takes none) and its duration.
type slot struct{ cycle, dur int }

// timeASAP writes the ASAP slot of every gate to slots and returns the
// makespan. With rev it times the gates as if their order were
// reversed, which is what the ALAP mirror needs.
func timeASAP(gates []circuit.Gate, numQubits int, p *Platform, rev bool, slots []slot) int {
	qubitFree := make([]int, numQubits) // first free cycle per qubit
	busy := channels{limit: p.MaxParallelOps}
	makespan := 0
	allFree := func() int {
		max := 0
		for _, f := range qubitFree {
			if f > max {
				max = f
			}
		}
		return max
	}
	for k := range gates {
		i := k
		if rev {
			i = len(gates) - 1 - k
		}
		g := &gates[i]
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
			slots[i] = slot{cycle: -1}
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
		if p.MaxParallelOps > 0 {
			start = busy.place(start, dur)
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
		if end > makespan {
			makespan = end
		}
		slots[i] = slot{cycle: start, dur: dur}
	}
	return makespan
}

// channels counts the operations executing in each cycle, for the
// control-channel limit, as runs of equal count: run i covers the cycles
// from at[i] up to at[i+1] (the last run is open-ended and empty), and n[i]
// operations execute in each of them. Memory follows the gate count, not
// the makespan.
type channels struct {
	limit int
	at, n []int
}

// place books dur cycles of one more operation at the earliest start ≥
// start whose every cycle has capacity under the limit, and returns that
// start. A full run blocks every start up to its end, so the search jumps
// past it.
func (c *channels) place(start, dur int) int {
	if c.at == nil {
		c.at, c.n = []int{0}, []int{0}
	}
	for i := c.run(start); i < len(c.at) && c.at[i] < start+dur; i++ {
		if c.n[i] >= c.limit {
			start = c.at[i+1]
		}
	}
	from, to := c.split(start), c.split(start+dur)
	for i := from; i < to; i++ {
		c.n[i]++
	}
	return start
}

// run returns the index of the run holding cycle t.
func (c *channels) run(t int) int {
	i, found := slices.BinarySearch(c.at, t)
	if !found {
		i--
	}
	return i
}

// split makes cycle t start a run and returns that run's index.
func (c *channels) split(t int) int {
	i := c.run(t)
	if c.at[i] == t {
		return i
	}
	c.at = slices.Insert(c.at, i+1, t)
	c.n = slices.Insert(c.n, i+1, c.n[i])
	return i + 1
}

// inCycleOrder emits the timed gates sorted by start cycle, stable in
// input order (or in order, when that is non-nil), with a counting sort
// over the cycles [0, makespan] while they are dense. Barriers take no
// place; lead zero-value gates go first.
func inCycleOrder(gates []circuit.Gate, slots []slot, order []int, makespan, lead int) []ScheduledGate {
	n := lead
	for _, s := range slots {
		if s.cycle >= 0 {
			n++
		}
	}
	out := make([]ScheduledGate, n)
	emit := func(at, i int) {
		out[at] = ScheduledGate{Gate: gates[i], Cycle: slots[i].cycle, Duration: slots[i].dur}
	}
	if !dense(makespan, n) {
		timed := make([]int, 0, n-lead)
		for k := range slots {
			i := k
			if order != nil {
				i = order[k]
			}
			if slots[i].cycle >= 0 {
				timed = append(timed, i)
			}
		}
		slices.SortStableFunc(timed, func(a, b int) int { return cmp.Compare(slots[a].cycle, slots[b].cycle) })
		for k, i := range timed {
			emit(lead+k, i)
		}
		return out
	}
	// next[c] is the output index of the next gate starting at cycle c.
	next := make([]int, makespan+1)
	for _, s := range slots {
		if s.cycle >= 0 {
			next[s.cycle]++
		}
	}
	for c, at := 0, lead; c <= makespan; c++ {
		next[c], at = at, at+next[c]
	}
	for k := range slots {
		i := k
		if order != nil {
			i = order[k]
		}
		if c := slots[i].cycle; c >= 0 {
			emit(next[c], i)
			next[c]++
		}
	}
	return out
}

// dense reports whether a counting sort over the keys [0, maxKey] keeps
// its count array within a small multiple of the n items it orders.
// Durations are device data, so cycle counts can dwarf the gate count;
// past that the schedule sorts by comparison instead, and its memory
// never grows with the cycle count.
func dense(maxKey, n int) bool {
	return maxKey <= 8*n+64
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
