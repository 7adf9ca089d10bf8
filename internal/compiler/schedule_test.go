package compiler

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/circuit"
)

// stableByCycle is the schedule order before the scheduler emitted in
// cycle order: gates appended in input order, then stably sorted by start
// cycle. ALAP sorted the reversed list's ASAP schedule so, mirrored it
// into place and sorted again, which puts a cycle's shorter gates first
// and leaves a zero-value gate at cycle 0 for each barrier.
func stableByCycle(c *circuit.Circuit, p *Platform, policy Policy) []ScheduledGate {
	sortedASAP := func(gates []circuit.Gate) ([]ScheduledGate, int) {
		slots := make([]slot, len(gates))
		makespan := timeASAP(gates, c.NumQubits, p, false, slots)
		var out []ScheduledGate
		for i, s := range slots {
			if s.cycle >= 0 {
				out = append(out, ScheduledGate{Gate: gates[i], Cycle: s.cycle, Duration: s.dur})
			}
		}
		slices.SortStableFunc(out, func(a, b ScheduledGate) int { return a.Cycle - b.Cycle })
		return out, makespan
	}
	if policy == ASAP {
		out, _ := sortedASAP(c.Gates)
		return out
	}
	rev := slices.Clone(c.Gates)
	slices.Reverse(rev)
	revSched, makespan := sortedASAP(rev)
	n := len(c.Gates)
	out := make([]ScheduledGate, n)
	for i, sg := range revSched {
		out[n-1-i] = ScheduledGate{Gate: sg.Gate, Duration: sg.Duration, Cycle: makespan - sg.Cycle - sg.Duration}
	}
	slices.SortStableFunc(out, func(a, b ScheduledGate) int { return a.Cycle - b.Cycle })
	return out
}

// TestScheduleEmitsInCycleOrder checks both policies, with and without a
// channel limit, on random lowered circuits with measurements, barriers,
// whole-register measurements and conditions: the schedule comes out in
// the stable cycle order and passes Validate. The slow gate table makes
// measurements long enough that the cycles outnumber the gates, which
// sends the order through the comparison sort instead of the counting
// sort.
func TestScheduleEmitsInCycleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	base := Superconducting()
	slow := nisqGates(1, 2, 4000, 10)
	for trial := 0; trial < 40; trial++ {
		c := circuit.RandomCircuit(6, 1+rng.Intn(5), rng)
		for i := 0; i < 4; i++ {
			at := rng.Intn(len(c.Gates) + 1)
			var g circuit.Gate
			switch rng.Intn(4) {
			case 0:
				g = circuit.Gate{Name: circuit.OpBarrier}
			case 1:
				g = circuit.Gate{Name: circuit.OpMeasure, Qubits: []int{rng.Intn(6)}}
			case 2:
				g = circuit.Gate{Name: "x", Qubits: []int{rng.Intn(6)}, HasCond: true, CondBit: rng.Intn(6)}
			default:
				if rng.Intn(4) > 0 {
					continue
				}
				g = circuit.Gate{Name: circuit.OpMeasureAll}
			}
			c.Gates = slices.Insert(c.Gates, at, g)
		}
		lowered, err := Decompose(c, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, gates := range []map[string]GateInfo{base.Gates, slow} {
			for _, limit := range []int{0, 1 + rng.Intn(3)} {
				p := &Platform{Name: "limited", NumQubits: base.NumQubits, Gates: gates, MaxParallelOps: limit}
				for _, policy := range []Policy{ASAP, ALAP} {
					s, err := ScheduleCircuit(lowered, p, policy)
					if err != nil {
						t.Fatal(err)
					}
					if want := stableByCycle(lowered, p, policy); !reflect.DeepEqual(s.Gates, want) {
						t.Fatalf("trial %d, limit %d, %d-cycle measure, %s: schedule order differs from the stable sort by cycle",
							trial, limit, gates["measure"].DurationCycles, policy)
					}
					if err := s.Validate(p); err != nil {
						t.Fatalf("trial %d, limit %d, %s: %v", trial, limit, policy, err)
					}
				}
			}
		}
	}
}

// TestScheduleMemoryIndependentOfDurations schedules gates lasting 2^50
// cycles: a count array over the cycles or the durations would exceed
// the largest allocation the runtime allows and panic, so this passes
// only if the scheduler's memory follows the gate count.
func TestScheduleMemoryIndependentOfDurations(t *testing.T) {
	const long = 1 << 50
	p := &Platform{Name: "slow", NumQubits: 3, Gates: map[string]GateInfo{
		"h": {DurationCycles: long}, "cnot": {DurationCycles: 3}, "measure": {DurationCycles: long},
	}}
	c := circuit.New("slow", 3).H(0).CNOT(0, 1).H(2).Barrier().Measure(1)
	for _, policy := range []Policy{ASAP, ALAP} {
		s, err := ScheduleCircuit(c, p, policy)
		if err != nil {
			t.Fatal(err)
		}
		if want := stableByCycle(c, p, policy); !reflect.DeepEqual(s.Gates, want) {
			t.Errorf("%s: schedule order differs from the stable sort by cycle", policy)
		}
		if s.Makespan != 2*long+3 {
			t.Errorf("%s: makespan %d, want %d", policy, s.Makespan, 2*long+3)
		}
	}
}

// timeASAPPerCycle is timeASAP as it was before the channel counts became
// runs: one counter per cycle of the schedule and a start probed one
// cycle at a time. It is the reference the run-length version must match.
func timeASAPPerCycle(gates []circuit.Gate, numQubits int, p *Platform, rev bool, slots []slot) int {
	qubitFree := make([]int, numQubits)
	var busy []int
	makespan := 0
	allFree := func() int {
		return slices.Max(qubitFree)
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
			t := allFree()
			for q := range qubitFree {
				qubitFree[q] = t
			}
			slots[i] = slot{cycle: -1}
			continue
		case circuit.OpMeasureAll:
			start = allFree()
		default:
			qubits = g.Qubits
			for _, q := range qubits {
				start = max(start, qubitFree[q])
			}
			if g.HasCond && g.CondBit < len(qubitFree) {
				start = max(start, qubitFree[g.CondBit])
			}
		}
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
		makespan = max(makespan, end)
		slots[i] = slot{cycle: start, dur: dur}
	}
	return makespan
}

// TestChannelRunsMatchPerCycle times random lowered circuits, with
// measurements, barriers, whole-register measurements, conditions and
// random gate durations, at channel limits 1 to 3 in both directions:
// every slot and the makespan must equal the per-cycle reference's.
func TestChannelRunsMatchPerCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	base := Superconducting()
	for trial := 0; trial < 60; trial++ {
		c := circuit.RandomCircuit(6, 1+rng.Intn(6), rng)
		for i := 0; i < 5; i++ {
			at := rng.Intn(len(c.Gates) + 1)
			var g circuit.Gate
			switch rng.Intn(4) {
			case 0:
				g = circuit.Gate{Name: circuit.OpBarrier}
			case 1:
				g = circuit.Gate{Name: circuit.OpMeasure, Qubits: []int{rng.Intn(6)}}
			case 2:
				g = circuit.Gate{Name: "x", Qubits: []int{rng.Intn(6)}, HasCond: true, CondBit: rng.Intn(6)}
			default:
				g = circuit.Gate{Name: circuit.OpMeasureAll}
			}
			c.Gates = slices.Insert(c.Gates, at, g)
		}
		lowered, err := Decompose(c, base)
		if err != nil {
			t.Fatal(err)
		}
		gates := map[string]GateInfo{}
		for name := range base.Gates {
			gates[name] = GateInfo{DurationCycles: 1 + rng.Intn(12)}
		}
		for limit := 1; limit <= 3; limit++ {
			p := &Platform{Name: "limited", NumQubits: base.NumQubits, Gates: gates, MaxParallelOps: limit}
			for _, rev := range []bool{false, true} {
				got := make([]slot, len(lowered.Gates))
				want := make([]slot, len(lowered.Gates))
				gotSpan := timeASAP(lowered.Gates, lowered.NumQubits, p, rev, got)
				wantSpan := timeASAPPerCycle(lowered.Gates, lowered.NumQubits, p, rev, want)
				if gotSpan != wantSpan || !slices.Equal(got, want) {
					t.Fatalf("trial %d, limit %d, rev %v: makespan %d vs %d, slots differ from the per-cycle reference",
						trial, limit, rev, gotSpan, wantSpan)
				}
			}
		}
	}
}

// TestChannelMemoryFollowsGates schedules eight chained 2^20-cycle gates
// under a one-operation channel limit. A counter per cycle would hold
// eight million of them (tens of MB); the runs hold a few per gate.
func TestChannelMemoryFollowsGates(t *testing.T) {
	p := &Platform{Name: "slow", NumQubits: 1, MaxParallelOps: 1,
		Gates: map[string]GateInfo{"x": {DurationCycles: 1 << 20}}}
	c := circuit.New("chain", 1)
	for i := 0; i < 8; i++ {
		c.X(0)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := ScheduleCircuit(c, p, ASAP)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 8<<20 {
		t.Fatalf("makespan %d, want %d", s.Makespan, 8<<20)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("scheduling allocated %d bytes, want under 1 MB", alloc)
	}
}
