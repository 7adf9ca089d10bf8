package qx

import (
	"slices"

	"repro/internal/quantum"
)

// treeAmpCap bounds what a perfect run's outcome tree holds beyond its
// root, in complex128 values (16 bytes each): every node built is
// charged treeNodeCost plus its measured-bits words, an inner node its
// state's cost on top, and the total stays below 1<<18 (4 MiB). A node's
// own headers — the outcomeNode, the engine's state wrapper and the
// state's header — take well under treeNodeCost values (1 KiB), so the
// bound holds for the tree's whole footprint, and no run builds more
// than 4096 nodes. A dense state costs its amplitudes, so at 18 or more
// qubits no inner node fits and every shot replays the circuit from the
// root's first random draw on; a tableau costs its rows.
const (
	treeAmpCap   = 1 << 18
	treeNodeCost = 64
)

// drawState is what collapse needs of an engine's state.
type drawState interface {
	// project collapses qubit q onto outcome b, which has P > 0.
	project(q, b int)
	// flip applies X to qubit q.
	flip(q int)
}

// treeState is an engine's simulation state as the outcome tree drives
// it; S is the implementing type. Both implementations (denseRun,
// stabRun) carry their compiled program and ExecEnv.
type treeState[S any] interface {
	drawState
	// clone returns an independent copy.
	clone() S
	// copyFrom overwrites the state with src's without allocating.
	copyFrom(src S)
	// prob returns the probability that measuring qubit q reads 1.
	prob(q int) float64
	// run executes ops [from, to) of the program, drawing at every
	// measure and prep_z, reading feed-forward conditions from and
	// recording measured bits into the packed mask bits. It returns the
	// number of injected errors.
	run(from, to int, bits []uint64) int
	// cost is the charge of a tree node holding the state, in complex128
	// values.
	cost() int
}

// collapse is what outcome b of draw d does on every engine: it
// projects s onto b, flips a prep_z's 1 back to |0>, and sets a
// measure's bit in bits to b — after the readout flip on noisy runs. A
// nil s (an outcome-tree leaf, which keeps no state) updates only bits.
func collapse(s drawState, d draw, b int, bits []uint64, env *ExecEnv) {
	if s != nil {
		s.project(d.q, b)
		if d.prep && b == 1 {
			s.flip(d.q)
		}
	}
	if d.prep {
		return
	}
	if env.noisy() {
		b = flipReadoutBit(env, b)
	}
	w, m := d.q>>6, uint64(1)<<(uint(d.q)&63)
	bits[w] = bits[w]&^m | uint64(b)<<(uint(d.q)&63)
}

// bitAt returns qubit q's bit of the packed mask bits.
func bitAt(bits []uint64, q int) int { return int(bits[q>>6] >> (uint(q) & 63) & 1) }

// outcomeNode is one measurement-outcome history of a perfect run. An
// inner node holds the state just before the history's next random draw
// draws[d], that draw's P(1) and the bits measured so far; a leaf, past
// the last draw, holds only the bits (d == len(draws)) and counts the
// shots that end there. A forced draw — P(1) of exactly 0 or 1, so
// quantum.DrawOutcome can return only one outcome — does not branch: the
// node has it applied already, and skip counts the forced draws a shot
// passes on its way into the node, each of which still takes one PRNG
// value. child[b] follows outcome b, nil until a shot first draws it.
type outcomeNode[S any] struct {
	st    S
	d     int
	skip  int
	p1    float64
	bits  []uint64
	hits  int
	child [2]*outcomeNode[S]
}

// runTree is the perfect measured shot loop of both the optimized and
// the stabilizer engine. Only measure and prep_z draw from the PRNG on a
// perfect run, so the ops between two draws are a deterministic function
// of the outcomes drawn so far, and each history needs simulating once.
// root holds |0…0>, and draws lists the program's measure and prep_z
// ops, at least one. The ops up to the first random draw run once into
// the root; each shot then walks from the root, drawing one outcome per
// node through quantum.DrawOutcome (the draw every engine makes at a
// measurement) and building a missing child on first visit. Once the
// cap stops a child from being built, the shot copies its node into one
// scratch state, applies the outcome and runs the rest of the history
// there. It returns the tree's root.
func runTree[S treeState[S]](res *Result, shots int, env *ExecEnv, draws []draw, root S) *outcomeNode[S] {
	bits := make([]uint64, (res.NumQubits+63)/64)
	root.run(0, draws[0].at, bits)
	top := settle(root, 0, bits, draws, env)
	last := draws[len(draws)-1].at + 1
	charged := 0
	var leaves []*outcomeNode[S]
	if top.d == len(draws) {
		leaves = append(leaves, top)
	}
	var scratch S
	var scratchBits []uint64 // nil until the first shot past the cap
shots:
	for i := 0; i < shots; i++ {
		n := top
		for {
			for k := 0; k < n.skip; k++ {
				quantum.DrawOutcome(env.Rng, 0) // a forced draw: its outcome is already applied
			}
			if n.d == len(draws) {
				break
			}
			b := quantum.DrawOutcome(env.Rng, n.p1)
			next := n.child[b]
			if next == nil {
				if next = grow(n, b, draws, env, &charged); next == nil {
					if scratchBits == nil {
						scratch, scratchBits = n.st.clone(), make([]uint64, len(n.bits))
					}
					scratch.copyFrom(n.st)
					copy(scratchBits, n.bits)
					collapse(scratch, draws[n.d], b, scratchBits, env)
					scratch.run(draws[n.d].at+1, last, scratchBits)
					res.countWords(scratchBits, 1)
					continue shots
				}
				if next.d == len(draws) {
					leaves = append(leaves, next)
				}
				n.child[b] = next
			}
			n = next
		}
		n.hits++
	}
	for _, l := range leaves {
		res.countWords(l.bits, l.hits)
	}
	return top
}

// grow builds the child of the inner node parent for outcome b: a leaf
// after the last draw, else a clone of the parent's state with the
// outcome applied, settled up to the next random draw. It returns nil
// when the node would take the tree's charge to treeAmpCap. A child
// that settles into a leaf drops its state, but stays charged for it.
func grow[S treeState[S]](parent *outcomeNode[S], b int, draws []draw, env *ExecEnv, charged *int) *outcomeNode[S] {
	d := parent.d
	leaf := d+1 == len(draws)
	cost := treeNodeCost + (len(parent.bits)+1)/2
	if !leaf {
		cost += parent.st.cost()
	}
	if *charged+cost >= treeAmpCap {
		return nil
	}
	*charged += cost
	bits := slices.Clone(parent.bits)
	if leaf {
		collapse(nil, draws[d], b, bits, env)
		return &outcomeNode[S]{d: d + 1, bits: bits}
	}
	st := parent.st.clone()
	collapse(st, draws[d], b, bits, env)
	st.run(draws[d].at+1, draws[d+1].at, bits)
	return settle(st, d+1, bits, draws, env)
}

// settle returns the node for state s, standing just before draws[d]
// with the given bits measured. It applies every forced draw from d on
// to s, with the ops after it, and stops before the first random draw,
// or past the last draw with a leaf, which keeps no state.
func settle[S treeState[S]](s S, d int, bits []uint64, draws []draw, env *ExecEnv) *outcomeNode[S] {
	n := &outcomeNode[S]{d: d, bits: bits}
	for ; n.d < len(draws); n.d++ {
		dr := draws[n.d]
		if n.p1 = s.prob(dr.q); n.p1 > 0 && n.p1 < 1 {
			n.st = s
			return n
		}
		b := 0
		if n.p1 >= 1 {
			b = 1
		}
		collapse(s, dr, b, bits, env)
		if n.d+1 < len(draws) {
			s.run(dr.at+1, draws[n.d+1].at, bits)
		}
		n.skip++
	}
	return n
}
