// Package compiler implements the quantum compiler layer of the stack
// (§2.4–§2.6): gate decomposition to a target's primitive set, circuit
// optimisation, ASAP/ALAP and resource-constrained scheduling, and
// mapping/routing under nearest-neighbour constraints — including
// noise-aware routing weighted by the device's calibration data. A
// Platform is a thin compiler-side view of a target.Device, the
// configuration that retargets the same passes to different quantum
// technologies, exactly as the paper's micro-architecture was retargeted
// from superconducting to semiconducting qubits by "changes in the
// configuration file for the compiler".
package compiler

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/target"
	"repro/internal/topology"
)

// GateInfo holds per-gate platform parameters. It is the device-layer
// gate spec: platforms view devices, they do not redefine them.
type GateInfo = target.GateSpec

// Platform is the compiler's view of a compilation target: its primitive
// gate set, gate timings, qubit connectivity and control-channel limits,
// plus (through Target) the device calibration data that noise-aware
// passes weigh their decisions by. Build one from a device with
// PlatformFor; hand-constructed Platforms (Target nil) remain valid
// uncalibrated targets.
type Platform struct {
	Name        string `json:"name"`
	NumQubits   int    `json:"qubits"`
	CycleTimeNs int    `json:"cycle_time_ns"`
	// Gates maps primitive gate names to their parameters. A gate absent
	// from this map must be decomposed before execution.
	Gates map[string]GateInfo `json:"gates"`
	// MaxParallelOps bounds the number of simultaneously executing
	// operations (control-channel limit); 0 means unlimited.
	MaxParallelOps int `json:"max_parallel_ops"`
	// Topology is the qubit connectivity; nil means all-to-all (perfect
	// qubits, §2.1).
	Topology *topology.Topology `json:"-"`
	// Target is the device this platform views; nil for hand-built
	// platforms. It carries the calibration table and the identity the
	// content hash is derived from. A Platform treats its device as
	// immutable: re-calibrations produce new devices (and platforms),
	// never in-place edits.
	Target *target.Device `json:"-"`

	// hashOnce/hash memoise ContentHash — it sits on the per-submission
	// compile-cache path, and canonical-marshal+SHA-256 of a full device
	// is too expensive to redo per lookup. Platforms are shared by
	// pointer; the zero value works for hand-built literals.
	hashOnce sync.Once
	hash     string
	// gateHashOnce/gateHash memoise GateSetHash the same way.
	gateHashOnce sync.Once
	gateHash     string
	// lowerings points at the lowering table Decompose reads, one entry
	// per registered gate name, built on first use (see lowering). It is
	// created on first use too, and shared between platforms of one gate
	// set (ShareLowerings).
	lowerings atomic.Pointer[sync.Map]
}

// PlatformFor returns the compiler view of a device. The view shares the
// device's topology and gate table; treat both as immutable.
func PlatformFor(dev *target.Device) *Platform {
	gates := dev.Gates
	if gates == nil {
		gates = map[string]GateInfo{}
	}
	return &Platform{
		Name:           dev.Name,
		NumQubits:      dev.NumQubits,
		CycleTimeNs:    dev.CycleTimeNs,
		Gates:          gates,
		MaxParallelOps: dev.MaxParallelOps,
		Topology:       dev.Topology,
		Target:         dev,
	}
}

// AsDevice returns the device behind the platform. Hand-built platforms
// (Target nil) synthesise an equivalent uncalibrated device from their
// fields, so every platform has a device form — and therefore a content
// hash.
func (p *Platform) AsDevice() *target.Device {
	if p.Target != nil {
		return p.Target
	}
	return &target.Device{
		Name:           p.Name,
		NumQubits:      p.NumQubits,
		CycleTimeNs:    p.CycleTimeNs,
		Gates:          p.Gates,
		MaxParallelOps: p.MaxParallelOps,
		Topology:       p.Topology,
	}
}

// ContentHash returns the stable content hash of the platform's device
// form (see target.Device.Hash), computed once per platform.
// Re-calibrating a device changes the hash, which is what lets stack
// fingerprints — and the compile caches keyed on them — distinguish
// device revisions.
func (p *Platform) ContentHash() string {
	p.hashOnce.Do(func() { p.hash = p.AsDevice().Hash() })
	return p.hash
}

// GateSetHash returns a stable hash of the platform's native gate set —
// the sorted gate names. This is everything the platform-generic prefix
// passes (decompose, optimize, fold-rotations) can observe: they test
// gate-set membership (Supports) and nothing else. Gate durations,
// topology, cycle time, control limits and calibration are deliberately
// excluded — only the variant suffix reads them — which is what keeps
// prefix artefacts valid across re-mappings, re-schedulings,
// re-calibrations and re-timings of the same gate set; devices that
// differ only in those (e.g. the superconducting and semiconducting
// presets, which share one primitive set at different speeds) share
// prefix-cache entries.
func (p *Platform) GateSetHash() string {
	p.gateHashOnce.Do(func() {
		names := make([]string, 0, len(p.Gates))
		for name := range p.Gates {
			names = append(names, name)
		}
		sort.Strings(names)
		h := sha256.New()
		for _, name := range names {
			h.Write([]byte(name))
			h.Write([]byte{0})
		}
		p.gateHash = hex.EncodeToString(h.Sum(nil))
	})
	return p.gateHash
}

// ShareLowerings makes p read prev's lowering table when the two
// platforms have the same gate set, which is all a lowering depends on,
// so a device rebuilt for a target or calibration override does not redo
// the expansions of the platform it replaces. Call it before p is in
// use.
func (p *Platform) ShareLowerings(prev *Platform) {
	if prev != nil && sameGateSet(p.Gates, prev.Gates) {
		p.lowerings.Store(prev.loweringTable())
	}
}

// loweringTable returns the platform's lowering table, creating it on
// first use.
func (p *Platform) loweringTable() *sync.Map {
	if t := p.lowerings.Load(); t != nil {
		return t
	}
	p.lowerings.CompareAndSwap(nil, new(sync.Map))
	return p.lowerings.Load()
}

// sameGateSet reports whether a and b name the same gates.
func sameGateSet(a, b map[string]GateInfo) bool {
	if len(a) != len(b) {
		return false
	}
	//qlint:nondeterministic-ok order-independent: a membership test
	for name := range a {
		if _, ok := b[name]; !ok {
			return false
		}
	}
	return true
}

// Calibration returns the device calibration table, nil for
// uncalibrated targets.
func (p *Platform) Calibration() *target.Calibration {
	if p.Target == nil {
		return nil
	}
	return p.Target.Calibration
}

// Supports reports whether the platform executes the gate natively.
func (p *Platform) Supports(name string) bool {
	_, ok := p.Gates[name]
	return ok
}

// Duration returns the cycle count of a gate (default 1 for unknown
// gates, so perfect platforms need no exhaustive table).
func (p *Platform) Duration(name string) int {
	if info, ok := p.Gates[name]; ok && info.DurationCycles > 0 {
		return info.DurationCycles
	}
	return 1
}

// Adjacent reports whether a two-qubit gate between physical qubits a and
// b is allowed.
func (p *Platform) Adjacent(a, b int) bool {
	if p.Topology == nil {
		return true
	}
	return p.Topology.Adjacent(a, b)
}

// Validate checks internal consistency.
func (p *Platform) Validate() error {
	if p.NumQubits <= 0 {
		return fmt.Errorf("compiler: platform %q has no qubits", p.Name)
	}
	if p.Topology != nil && p.Topology.N != p.NumQubits {
		return fmt.Errorf("compiler: platform %q topology size %d != qubits %d",
			p.Name, p.Topology.N, p.NumQubits)
	}
	return nil
}

// Perfect returns the perfect-qubit platform: every registered gate is
// primitive, connectivity is all-to-all and there are no channel limits.
// This is the application-development target of §2.1.
func Perfect(n int) *Platform {
	return PlatformFor(target.Perfect(n))
}

// Superconducting returns the view of the transmon device preset:
// Surface-17 connectivity, 20 ns cycles, uniform calibration — the
// experimental target of §3.1.
func Superconducting() *Platform {
	return PlatformFor(target.Superconducting())
}

// Semiconducting returns the view of the spin-qubit device preset:
// linear array, slower two-qubit exchange gates, 100 ns cycles — the
// second technology the paper's micro-architecture was retargeted to.
func Semiconducting() *Platform {
	return PlatformFor(target.Semiconducting())
}

// nisqGates is the shared hardware primitive set; kept as a package
// helper for tests building bespoke platforms.
func nisqGates(single, two, meas, prep int) map[string]GateInfo {
	return target.NISQGates(single, two, meas, prep)
}

// LoadPlatform parses a platform from device JSON (see the target
// package for the schema; legacy platform configs are a subset of it).
func LoadPlatform(data []byte) (*Platform, error) {
	dev, err := target.Parse(data)
	if err != nil {
		return nil, err
	}
	return PlatformFor(dev), nil
}
