package compiler

import (
	"container/heap"
	"math"

	"repro/internal/circuit"
	"repro/internal/target"
	"repro/internal/topology"
)

// Noise-aware placement and routing: the mapping stage of §2.6 weighted
// by the device's calibration table instead of hop count alone. Each
// edge carries a cost derived from its measured two-qubit error — the
// negative log success probability of gating across it, with routing
// SWAPs paying three two-qubit gates — so weighted shortest paths route
// around lossy couplers whenever a cleaner detour exists. On a uniform
// calibration every edge costs the same, the weights carry no signal,
// and the router degenerates — by construction, via delegation — to the
// hop-count router, producing gate-for-gate identical artefacts.

// swapGatesPerEdge is the two-qubit gate count of one routing SWAP
// (three CZ/CNOTs), the factor a swap's edge risk is scaled by.
const swapGatesPerEdge = 3

// hopEpsilon is the residual per-edge cost on zero-error couplers, so
// weighted paths stay finite-length and ties break toward fewer hops.
const hopEpsilon = 1e-9

// edgeRisk converts a two-qubit error probability into an additive cost:
// -ln(1-p), the negative log success of one gate across the edge.
func edgeRisk(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return -math.Log1p(-p)
}

// noiseWeights is the per-call routing state: symmetric per-edge swap
// costs, the all-pairs weighted distances derived from them and the
// lookahead window. It is rebuilt per MapCircuitNoise call — nothing is
// cached on the shared topology, keeping concurrent compilations
// race-free.
type noiseWeights struct {
	topo   *topology.Topology
	swap   [][]float64 // swap[a][b]: cost of one SWAP across edge (a,b); +Inf when not adjacent
	wdist  [][]float64 // all-pairs weighted distances over swap costs
	window int         // upcoming two-qubit gates lookahead scores (MapOptions.window)
}

func newNoiseWeights(topo *topology.Topology, cal *target.Calibration, window int) *noiseWeights {
	n := topo.N
	w := &noiseWeights{topo: topo, window: window}
	w.swap = make([][]float64, n)
	for a := 0; a < n; a++ {
		w.swap[a] = make([]float64, n)
		for b := range w.swap[a] {
			w.swap[a][b] = math.Inf(1)
		}
	}
	for _, e := range topo.Edges() {
		cost := swapGatesPerEdge*edgeRisk(cal.EdgeError(e[0], e[1])) + hopEpsilon
		w.swap[e[0]][e[1]] = cost
		w.swap[e[1]][e[0]] = cost
	}
	w.wdist = make([][]float64, n)
	for src := 0; src < n; src++ {
		w.wdist[src] = w.dijkstra(src)
	}
	return w
}

// distHeap is a deterministic min-heap of (distance, node), tie-broken
// by node id.
type distItem struct {
	node int
	d    float64
}
type distHeap []distItem

func (h distHeap) Len() int { return len(h) }
func (h distHeap) Less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].node < h[j].node
}
func (h distHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)   { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

func (w *noiseWeights) dijkstra(src int) []float64 {
	n := w.topo.N
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	done := make([]bool, n)
	h := &distHeap{{node: src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, v := range w.topo.Neighbors(it.node) {
			if nd := it.d + w.swap[it.node][v]; nd < dist[v] {
				dist[v] = nd
				heap.Push(h, distItem{node: v, d: nd})
			}
		}
	}
	return dist
}

// path returns a weighted-shortest path from a to b inclusive, built by
// deterministic greedy next-hop descent over wdist (sorted neighbour
// order breaks ties). Nil when disconnected.
func (w *noiseWeights) path(a, b int) []int {
	if math.IsInf(w.wdist[a][b], 1) {
		return nil
	}
	const tol = 1e-12
	path := []int{a}
	for a != b {
		next := -1
		best := math.Inf(1)
		for _, x := range w.topo.Neighbors(a) {
			if d := w.swap[a][x] + w.wdist[x][b]; d < best-tol {
				best = d
				next = x
			}
		}
		if next < 0 {
			return nil
		}
		a = next
		path = append(path, a)
	}
	return path
}

// lookahead scores a candidate swap: the swap's own cost plus the
// weighted distances the current and upcoming two-qubit gates would see
// under the post-swap layout (the current gate dominates; future gates
// are discounted like the hop router's lookahead window).
func (w *noiseWeights) lookahead(l2p []int, cur twoQ, upcoming []twoQ, swap [2]int) float64 {
	scratch := append([]int(nil), l2p...)
	for l, p := range scratch {
		if p == swap[0] {
			scratch[l] = swap[1]
		} else if p == swap[1] {
			scratch[l] = swap[0]
		}
	}
	cost := w.swap[swap[0]][swap[1]]
	cost += float64(w.window+1) * w.wdist[scratch[cur.a]][scratch[cur.b]]
	for i := 0; i < len(upcoming) && i < w.window; i++ {
		g := upcoming[i]
		cost += float64(w.window-i) * w.wdist[scratch[g.a]][scratch[g.b]]
	}
	return cost
}

// MapCircuitNoise places and routes the circuit like MapCircuit, but
// weighs every routing decision by the platform's calibration data: SWAP
// chains prefer high-fidelity couplers even when that costs extra hops,
// maximising the routed circuit's expected success probability (see
// ExpectedSuccess). Swap-direction scoring always weighs the current
// gate's edge costs — that is what noise-aware routing is — while the
// future-gate window is only consulted under Lookahead, mirroring the
// hop router's toggle. Without a topology, without calibration, or under
// a calibration whose edges are uniform — no routing signal — it
// delegates to MapCircuit and returns bit-identical results.
func MapCircuitNoise(c *circuit.Circuit, p *Platform, opts MapOptions) (*MapResult, error) {
	cal := p.Calibration()
	if p.Topology == nil || cal == nil || cal.UniformEdges(p.Topology) {
		return MapCircuit(c, p, opts)
	}
	return route(c, p, opts, func(topo *topology.Topology) costModel {
		w := newNoiseWeights(topo, cal, opts.window())
		return costModel{path: w.path, score: w.lookahead}
	})
}

// ExpectedSuccess estimates the probability a physical (routed) circuit
// executes without a gate or readout error under the platform's
// calibration: the product of per-gate success probabilities — (1-p₂)
// per two-qubit gate on its edge, cubed for SWAPs, (1-p₁) per
// single-qubit gate, (1-p_ro) per measured qubit. Uncalibrated
// platforms report 1. This is the objective noise-aware routing
// optimises and the differential tests compare routers on.
func ExpectedSuccess(c *circuit.Circuit, p *Platform) float64 {
	cal := p.Calibration()
	if cal == nil {
		return 1
	}
	esp := 1.0
	for _, g := range c.Gates {
		switch {
		case g.Name == circuit.OpMeasure:
			esp *= 1 - cal.Qubit(g.Qubits[0]).ReadoutError
		case g.Name == circuit.OpMeasureAll:
			for q := 0; q < c.NumQubits; q++ {
				esp *= 1 - cal.Qubit(q).ReadoutError
			}
		case !g.IsUnitary():
			// prep, barrier, wait: no calibrated error channel.
		case g.IsTwoQubit():
			succ := 1 - cal.EdgeError(g.Qubits[0], g.Qubits[1])
			if g.Name == "swap" && !p.Supports("swap") {
				// A routing SWAP lowers to three two-qubit primitives.
				succ = succ * succ * succ
			}
			esp *= succ
		case len(g.Qubits) == 1:
			esp *= 1 - cal.Qubit(g.Qubits[0]).SingleQubitError
		}
	}
	return esp
}
