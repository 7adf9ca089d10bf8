package compiler

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/circuit"
	"repro/internal/topology"
)

// PlacementStrategy selects the initial logical→physical assignment.
type PlacementStrategy int

const (
	// TrivialPlacement maps logical qubit i to physical qubit i.
	TrivialPlacement PlacementStrategy = iota
	// GreedyPlacement places strongly-interacting logical qubits on
	// adjacent, high-degree physical qubits.
	GreedyPlacement
)

// MapOptions configures the mapping pass.
type MapOptions struct {
	Placement PlacementStrategy
	// Lookahead enables the routing heuristic that picks the SWAP
	// direction minimising the distance of upcoming two-qubit gates
	// (window of LookaheadWindow gates; default 5).
	Lookahead       bool
	LookaheadWindow int
}

// MapResult is the output of the mapping pass: the routed circuit over
// physical qubits plus the bookkeeping the run-time needs.
type MapResult struct {
	Circuit       *circuit.Circuit
	InitialLayout []int // logical → physical
	FinalLayout   []int // logical → physical after routing
	AddedSwaps    int
	// LatencyFactor is depth(mapped)/depth(original); ≥ 1.
	LatencyFactor float64
	// MeasurePhys records, per measured logical qubit, the physical qubit
	// it occupied when its measurement was emitted — the run-time needs
	// this to translate outcome bitmasks back to logical order.
	MeasurePhys map[int]int
}

// window returns the number of upcoming two-qubit gates routing
// consults when scoring a SWAP: 0 without Lookahead, else
// LookaheadWindow (default 5).
func (o MapOptions) window() int {
	switch {
	case !o.Lookahead:
		return 0
	case o.LookaheadWindow <= 0:
		return 5
	default:
		return o.LookaheadWindow
	}
}

// MapCircuit places the logical qubits of c onto the platform's topology
// and inserts SWAP chains so that every two-qubit gate acts on adjacent
// physical qubits — the "placement and routing of qubits" stage of §2.6.
// SWAP chains follow hop-count shortest paths; under Lookahead each SWAP
// steps whichever endpoint leaves the upcoming two-qubit gates closest.
// Gates of arity ≥ 3 must be decomposed first. It takes a valid circuit;
// circuits are checked where they are built or parsed.
func MapCircuit(c *circuit.Circuit, p *Platform, opts MapOptions) (*MapResult, error) {
	return route(c, p, opts, func(topo *topology.Topology) costModel {
		m := costModel{path: topo.ShortestPath}
		if window := opts.window(); window > 0 {
			m.score = func(l2p []int, _ twoQ, upcoming []twoQ, swap [2]int) float64 {
				return float64(lookaheadCost(topo, l2p, upcoming, window, swap))
			}
		}
		return m
	})
}

// costModel is what tells the two routers apart: the path a SWAP chain
// follows between two physical qubits, and the score deciding which
// endpoint of the current gate steps along it (lower wins; nil always
// steps the front endpoint).
type costModel struct {
	path  func(a, b int) []int
	score func(l2p []int, cur twoQ, upcoming []twoQ, swap [2]int) float64
}

// route is the routing loop both mappers share: validation and
// placement, the operand remap with its measure/cond-bit bindings, SWAP
// emission along the cost model's paths, and the MapResult. model builds
// the cost model once the circuit has been vetted against the topology.
func route(c *circuit.Circuit, p *Platform, opts MapOptions, model func(*topology.Topology) costModel) (*MapResult, error) {
	if p.Topology == nil {
		// All-to-all: mapping is the identity.
		layout := identityLayout(c.NumQubits)
		mp := map[int]int{}
		for q := 0; q < c.NumQubits; q++ {
			mp[q] = q
		}
		return &MapResult{
			Circuit:       &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, Gates: slices.Clone(c.Gates)},
			InitialLayout: layout,
			FinalLayout:   append([]int(nil), layout...),
			LatencyFactor: 1,
			MeasurePhys:   mp,
		}, nil
	}
	topo := p.Topology
	if c.NumQubits > topo.N {
		return nil, fmt.Errorf("compiler: circuit needs %d qubits, topology has %d", c.NumQubits, topo.N)
	}
	for _, g := range c.Gates {
		if g.IsUnitary() && len(g.Qubits) > 2 {
			return nil, fmt.Errorf("compiler: mapping requires decomposed circuits; found %d-qubit gate %q", len(g.Qubits), g.Name)
		}
	}
	m := model(topo)

	var l2p []int
	switch opts.Placement {
	case GreedyPlacement:
		l2p = greedyPlacement(c, topo)
	default:
		l2p = identityLayout(topo.N)
	}
	p2l := make([]int, topo.N)
	invert(p2l, l2p)
	initial := append([]int(nil), l2p...)

	// Qubits move only at two-qubit gates, so routing walks those alone
	// first, recording each SWAP and the input gate it precedes; the
	// output is then built once, at its final size, by replaying the
	// SWAPs from the initial layout.
	var upcoming []twoQ
	for i, g := range c.Gates {
		if g.IsTwoQubit() {
			upcoming = append(upcoming, twoQ{i, g.Qubits[0], g.Qubits[1]})
		}
	}
	type swapAt struct{ before, a, b int }
	var swaps []swapAt
	for k, cur := range upcoming {
		pa, pb := l2p[cur.a], l2p[cur.b]
		for !topo.Adjacent(pa, pb) {
			path := m.path(pa, pb)
			if path == nil {
				return nil, fmt.Errorf("compiler: qubits %d and %d are disconnected", pa, pb)
			}
			// Candidate moves: step a forward, or step b backward.
			stepA := [2]int{pa, path[1]}
			stepB := [2]int{pb, path[len(path)-2]}
			chosen := stepA
			if m.score != nil && m.score(l2p, cur, upcoming[k+1:], stepB) < m.score(l2p, cur, upcoming[k+1:], stepA) {
				chosen = stepB
			}
			swaps = append(swaps, swapAt{cur.idx, chosen[0], chosen[1]})
			applySwap(l2p, p2l, chosen[0], chosen[1])
			pa, pb = l2p[cur.a], l2p[cur.b]
		}
	}
	copy(l2p, initial)
	invert(p2l, l2p)

	// Every gate is emitted with its operands remapped and every SWAP
	// with its pair, all cut from one array; parameter slices are shared.
	gates := make([]circuit.Gate, 0, len(c.Gates)+len(swaps))
	operands := 2 * len(swaps)
	for _, g := range c.Gates {
		operands += len(g.Qubits)
	}
	arena := make([]int, operands)
	measurePhys := map[int]int{}
	next := 0
	for gi, g := range c.Gates {
		for ; next < len(swaps) && swaps[next].before == gi; next++ {
			sw := swaps[next]
			qs := arena[:2:2]
			arena = arena[2:]
			qs[0], qs[1] = sw.a, sw.b
			gates = append(gates, circuit.Gate{Name: "swap", Qubits: qs})
			applySwap(l2p, p2l, sw.a, sw.b)
		}
		// Remap operands and record measurement bindings.
		ng := g
		if n := len(g.Qubits); n > 0 {
			ng.Qubits = arena[:n:n]
			arena = arena[n:]
			for i, q := range g.Qubits {
				ng.Qubits[i] = l2p[q]
			}
		}
		switch g.Name {
		case circuit.OpMeasure:
			measurePhys[g.Qubits[0]] = ng.Qubits[0]
		case circuit.OpMeasureAll:
			for l := 0; l < c.NumQubits; l++ {
				measurePhys[l] = l2p[l]
			}
		}
		// A conditional gate reads the classical bit at its physical
		// home: where the producing measurement happened, else the
		// operand's current position.
		if ng.HasCond {
			if p, ok := measurePhys[g.CondBit]; ok {
				ng.CondBit = p
			} else {
				ng.CondBit = l2p[g.CondBit]
			}
		}
		gates = append(gates, ng)
	}
	out := &circuit.Circuit{Name: c.Name + "_mapped", NumQubits: topo.N, Gates: gates}

	origDepth := c.Depth()
	factor := 1.0
	if origDepth > 0 {
		factor = float64(out.Depth()) / float64(origDepth)
	}
	// Default the measurement binding to the final layout for logical
	// qubits the program never explicitly measures.
	for l := 0; l < c.NumQubits; l++ {
		if _, ok := measurePhys[l]; !ok {
			measurePhys[l] = l2p[l]
		}
	}
	return &MapResult{
		Circuit:       out,
		InitialLayout: initial,
		FinalLayout:   l2p,
		AddedSwaps:    len(swaps),
		LatencyFactor: factor,
		MeasurePhys:   measurePhys,
	}, nil
}

func identityLayout(n int) []int {
	l := make([]int, n)
	for i := range l {
		l[i] = i
	}
	return l
}

// invert fills p2l with the inverse of the layout l2p, -1 where no
// logical qubit sits.
func invert(p2l, l2p []int) {
	for i := range p2l {
		p2l[i] = -1
	}
	for l, p := range l2p {
		p2l[p] = l
	}
}

func applySwap(l2p, p2l []int, pa, pb int) {
	la, lb := p2l[pa], p2l[pb]
	p2l[pa], p2l[pb] = lb, la
	if la >= 0 {
		l2p[la] = pb
	}
	if lb >= 0 {
		l2p[lb] = pa
	}
}

// twoQ records the position and logical operands of a two-qubit gate, for
// the routing lookahead.
type twoQ struct{ idx, a, b int }

// lookaheadCost evaluates a candidate swap by the total distance of the
// next `window` two-qubit gates under the post-swap layout.
func lookaheadCost(topo *topology.Topology, l2p []int, upcoming []twoQ, window int, swap [2]int) int {
	// Apply the swap to a scratch copy of the layout.
	scratch := append([]int(nil), l2p...)
	for l, p := range scratch {
		if p == swap[0] {
			scratch[l] = swap[1]
		} else if p == swap[1] {
			scratch[l] = swap[0]
		}
	}
	cost := 0
	for i := 0; i < len(upcoming) && i < window; i++ {
		g := upcoming[i]
		d := topo.Distance(scratch[g.a], scratch[g.b])
		// Discount later gates.
		cost += d * (window - i)
	}
	return cost
}

// greedyPlacement assigns the most-interacting logical qubits to the
// highest-degree physical qubits, keeping frequent partners adjacent
// where possible.
func greedyPlacement(c *circuit.Circuit, topo *topology.Topology) []int {
	n := topo.N
	// Interaction counts between logical qubits.
	inter := map[[2]int]int{}
	degree := make([]int, c.NumQubits)
	for _, g := range c.Gates {
		if !g.IsTwoQubit() {
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		if a > b {
			a, b = b, a
		}
		inter[[2]int{a, b}]++
		degree[g.Qubits[0]]++
		degree[g.Qubits[1]]++
	}
	// Order logical qubits by interaction degree, descending.
	order := make([]int, c.NumQubits)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return degree[order[i]] > degree[order[j]] })

	l2p := make([]int, n)
	for i := range l2p {
		l2p[i] = -1
	}
	usedPhys := make([]bool, n)

	// Place the busiest logical qubit on the highest-degree physical
	// qubit; place subsequent qubits adjacent to their most frequent
	// already-placed partner when possible.
	physByDegree := make([]int, n)
	for i := range physByDegree {
		physByDegree[i] = i
	}
	sort.SliceStable(physByDegree, func(i, j int) bool {
		return topo.Degree(physByDegree[i]) > topo.Degree(physByDegree[j])
	})
	takeFree := func(candidates []int) int {
		for _, p := range candidates {
			if !usedPhys[p] {
				return p
			}
		}
		for _, p := range physByDegree {
			if !usedPhys[p] {
				return p
			}
		}
		return -1
	}
	for _, l := range order {
		// Find the most frequent placed partner. Ties break toward the
		// lowest partner id so placement is deterministic — map iteration
		// order must never leak into routing results.
		bestPartner, bestCount := -1, 0
		//qlint:nondeterministic-ok order-independent: strict count ordering with lowest-partner-id tie-break yields one winner regardless of iteration order
		for pair, count := range inter {
			var other int
			switch l {
			case pair[0]:
				other = pair[1]
			case pair[1]:
				other = pair[0]
			default:
				continue
			}
			if l2p[other] < 0 {
				continue
			}
			if count > bestCount || (count == bestCount && bestPartner >= 0 && other < bestPartner) {
				bestPartner, bestCount = other, count
			}
		}
		var phys int
		if bestPartner >= 0 {
			phys = takeFree(topo.Neighbors(l2p[bestPartner]))
		} else {
			phys = takeFree(nil)
		}
		l2p[l] = phys
		usedPhys[phys] = true
	}
	// Fill the remaining identity slots for logical ids ≥ c.NumQubits.
	for l := c.NumQubits; l < n; l++ {
		l2p[l] = takeFree(nil)
		usedPhys[l2p[l]] = true
	}
	return l2p
}
