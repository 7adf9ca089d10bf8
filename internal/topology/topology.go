// Package topology models qubit-plane connectivity graphs. The paper's
// mapping layer (§2.6) must respect nearest-neighbour (NN) interaction
// constraints: two-qubit gates are only possible between adjacent qubits,
// so placement and routing are defined relative to one of these graphs.
package topology

import (
	"fmt"
	"sort"
	"sync"
)

// Topology is an undirected connectivity graph over qubits 0..N-1.
type Topology struct {
	Name string
	N    int
	adj  [][]int
	// dist (all-pairs hop distances) and next (next hop on a shortest
	// path) are computed on first use, once: concurrent readers — the
	// mappers of parallel compiles on one device — all wait for the same
	// fully built tables. AddEdge resets them; it must not race readers.
	once sync.Once
	dist [][]int
	next [][]int
}

// New returns an edgeless topology over n qubits.
func New(name string, n int) *Topology {
	if n <= 0 {
		panic("topology: non-positive qubit count")
	}
	return &Topology{Name: name, N: n, adj: make([][]int, n)}
}

// AddEdge inserts an undirected edge; duplicates and self-loops are
// ignored.
func (t *Topology) AddEdge(a, b int) {
	if a == b || a < 0 || b < 0 || a >= t.N || b >= t.N {
		return
	}
	for _, x := range t.adj[a] {
		if x == b {
			return
		}
	}
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
	t.once = sync.Once{}
	t.dist, t.next = nil, nil
}

// Neighbors returns the sorted adjacency list of q.
func (t *Topology) Neighbors(q int) []int {
	out := append([]int(nil), t.adj[q]...)
	sort.Ints(out)
	return out
}

// Degree returns the number of neighbours of q.
func (t *Topology) Degree(q int) int { return len(t.adj[q]) }

// Adjacent reports whether a and b share an edge.
func (t *Topology) Adjacent(a, b int) bool {
	for _, x := range t.adj[a] {
		if x == b {
			return true
		}
	}
	return false
}

// Edges returns every undirected edge once, ordered.
func (t *Topology) Edges() [][2]int {
	var out [][2]int
	for a := 0; a < t.N; a++ {
		for _, b := range t.adj[a] {
			if a < b {
				out = append(out, [2]int{a, b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// NumEdges returns the edge count.
func (t *Topology) NumEdges() int {
	total := 0
	for _, l := range t.adj {
		total += len(l)
	}
	return total / 2
}

func (t *Topology) computeDistances() {
	dist := make([][]int, t.N)
	next := make([][]int, t.N)
	for src := 0; src < t.N; src++ {
		d := make([]int, t.N)
		nx := make([]int, t.N)
		for i := range d {
			d[i] = -1
			nx[i] = -1
		}
		d[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range t.adj[u] {
				if d[v] == -1 {
					d[v] = d[u] + 1
					queue = append(queue, v)
				}
			}
		}
		dist[src] = d
		next[src] = nx
	}
	// Fill next-hop table: next[src][dst] = a neighbour of src strictly
	// closer to dst.
	for src := 0; src < t.N; src++ {
		for dst := 0; dst < t.N; dst++ {
			if src == dst || dist[src][dst] <= 0 {
				continue
			}
			for _, w := range t.adj[src] {
				if dist[w][dst] == dist[src][dst]-1 {
					next[src][dst] = w
					break
				}
			}
		}
	}
	t.dist, t.next = dist, next
}

// Distance returns the hop distance between a and b, or -1 if
// disconnected.
func (t *Topology) Distance(a, b int) int {
	t.once.Do(t.computeDistances)
	return t.dist[a][b]
}

// ShortestPath returns a shortest path from a to b inclusive, or nil if
// disconnected.
func (t *Topology) ShortestPath(a, b int) []int {
	if t.Distance(a, b) < 0 {
		return nil
	}
	path := []int{a}
	for a != b {
		a = t.next[a][b]
		path = append(path, a)
	}
	return path
}

// Connected reports whether the graph is a single component.
func (t *Topology) Connected() bool {
	if t.N == 0 {
		return true
	}
	for v := 1; v < t.N; v++ {
		if t.Distance(0, v) < 0 {
			return false
		}
	}
	return true
}

// Diameter returns the maximum pairwise distance (-1 if disconnected).
func (t *Topology) Diameter() int {
	max := 0
	for a := 0; a < t.N; a++ {
		for b := a + 1; b < t.N; b++ {
			d := t.Distance(a, b)
			if d < 0 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// String summarises the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("%s(%d qubits, %d edges)", t.Name, t.N, t.NumEdges())
}
