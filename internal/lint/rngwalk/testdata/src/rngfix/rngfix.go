// Package rngfix is the rngwalk fixture: global math/rand draws and
// private PRNG construction (flagged), draws inside Engine methods
// (flagged), the blessed constructors and shared helpers (clean).
package rngfix

import "math/rand"

// Engine mirrors qx.Engine for the receiver-implements check.
type Engine interface {
	Name() string
	Run(rng *rand.Rand) int
}

type goodEngine struct{}

func (goodEngine) Name() string { return "good" }

// Run routes its draw through the shared helper — the contract shape.
func (goodEngine) Run(rng *rand.Rand) int { return helperDraw(rng) }

type badEngine struct{}

func (badEngine) Name() string { return "bad" }

// Run draws directly: this engine's walk desynchronises from the
// others the moment implementations differ.
func (badEngine) Run(rng *rand.Rand) int {
	return rng.Intn(4) // want `engine method draws Intn directly`
}

// helperDraw is a shared helper, not an Engine method: direct draws are
// its job.
func helperDraw(rng *rand.Rand) int { return rng.Intn(4) }

// globalDraw uses the package-level source — unseeded shared state.
func globalDraw() float64 {
	return rand.Float64() // want `global math/rand draw rand\.Float64`
}

// privatePRNG constructs its own stream outside the blessed list.
func privatePRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want `rand\.New outside` `rand\.NewSource outside`
}

// New is a blessed constructor (rngwalk.AllowNewIn): seeding the
// canonical stream is exactly its job.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// RunParallel is not blessed: its per-worker streams come from New.
func RunParallel(seed int64) []*rand.Rand {
	return []*rand.Rand{rand.New(rand.NewSource(seed + 1))} // want `rand\.New outside` `rand\.NewSource outside`
}
