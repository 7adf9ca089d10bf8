// Package target is the hardware-description layer of the stack: a
// first-class model of one quantum device that unifies everything the
// compiler must know about the hardware it compiles for — qubit count,
// qubit-plane topology, the native gate set with per-gate timings,
// control-channel limits, and a Calibration table of measured error
// rates (per-qubit T1/T2 and readout error, per-edge two-qubit error).
//
// The paper's full-stack argument is that the compiler sits on a real
// description of the hardware layer, and that retargeting the stack from
// one technology to another is a change of configuration, not of code.
// A target.Device is that configuration made concrete: it serialises to
// and from JSON (see Parse and Device.MarshalJSON), validates itself,
// and carries a stable content hash (Device.Hash) so every layer above —
// compiler platforms, core stack fingerprints, the qserv compile cache —
// can tell two device revisions apart. Re-calibrating a device changes
// its hash, which invalidates cached compiles built against the stale
// calibration.
//
// The three classic presets (perfect, superconducting/Surface-17,
// semiconducting) are constructed by Preset; compiler.Platform is a thin
// view over a Device (compiler.PlatformFor).
package target

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/topology"
)

// MaxDurationCycles bounds a gate's latency: about 21 ms at a 20 ns
// cycle, orders of magnitude beyond any preset gate. Devices arrive from clients, and
// schedulers keep per-cycle state, so an unbounded duration would let one
// device description claim unbounded memory.
const MaxDurationCycles = 1 << 20

// GateSpec holds per-gate device parameters.
type GateSpec struct {
	// DurationCycles is the gate latency in micro-architecture cycles.
	DurationCycles int `json:"duration"`
}

// Device is one compilation/execution target: the unified hardware
// description the compiler and runtime layers read.
type Device struct {
	Name        string
	NumQubits   int
	CycleTimeNs int
	// Gates maps native gate names to their parameters. An empty map
	// means every gate is primitive (the perfect-qubit abstraction); a
	// gate absent from a non-empty map must be decomposed before
	// execution.
	Gates map[string]GateSpec
	// MaxParallelOps bounds simultaneously executing operations
	// (control-channel limit); 0 means unlimited.
	MaxParallelOps int
	// Topology is the qubit connectivity; nil means all-to-all.
	Topology *topology.Topology
	// Calibration is the device's measured error data; nil means
	// uncalibrated (an ideal device).
	Calibration *Calibration
}

// Validate checks internal consistency: positive qubit count, a topology
// sized to the register, gate durations in [0, MaxDurationCycles], and a
// calibration table consistent with both.
func (d *Device) Validate() error {
	if d.NumQubits <= 0 {
		return fmt.Errorf("target: device %q has no qubits", d.Name)
	}
	if d.CycleTimeNs < 0 {
		return fmt.Errorf("target: device %q has negative cycle time", d.Name)
	}
	if d.Topology != nil && d.Topology.N != d.NumQubits {
		return fmt.Errorf("target: device %q topology size %d != qubits %d",
			d.Name, d.Topology.N, d.NumQubits)
	}
	// Check gates in sorted order so the reported offender is
	// deterministic when several have bad durations.
	names := make([]string, 0, len(d.Gates))
	for name := range d.Gates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch dur := d.Gates[name].DurationCycles; {
		case dur < 0:
			return fmt.Errorf("target: device %q gate %q has negative duration", d.Name, name)
		case dur > MaxDurationCycles:
			return fmt.Errorf("target: device %q gate %q duration %d exceeds %d cycles",
				d.Name, name, dur, MaxDurationCycles)
		}
	}
	if d.Calibration != nil {
		if err := d.Calibration.Validate(d.NumQubits, d.Topology); err != nil {
			return fmt.Errorf("target: device %q: %w", d.Name, err)
		}
	}
	return nil
}

// Clone returns a deep copy of the device. The topology is shared — it
// is immutable once built — but gates and calibration are copied, so a
// clone can be re-calibrated without aliasing the original.
func (d *Device) Clone() *Device {
	out := &Device{
		Name:           d.Name,
		NumQubits:      d.NumQubits,
		CycleTimeNs:    d.CycleTimeNs,
		MaxParallelOps: d.MaxParallelOps,
		Topology:       d.Topology,
	}
	if d.Gates != nil {
		out.Gates = make(map[string]GateSpec, len(d.Gates))
		//qlint:nondeterministic-ok order-independent: key-preserving copy into a fresh map
		for k, v := range d.Gates {
			out.Gates[k] = v
		}
	}
	if d.Calibration != nil {
		out.Calibration = d.Calibration.Clone()
	}
	return out
}

// WithCalibration returns a copy of the device carrying the given
// calibration table (nil removes calibration). The receiver is not
// mutated — re-calibration produces a new device value with a new Hash.
func (d *Device) WithCalibration(cal *Calibration) *Device {
	out := d.Clone()
	if cal != nil {
		cal = cal.Clone()
	}
	out.Calibration = cal
	return out
}

// Hash returns the device's stable content hash: the SHA-256 of its
// canonical JSON form, hex-encoded. Two devices with identical hardware
// descriptions and calibration data hash equal regardless of how they
// were constructed (preset, JSON, or by hand); any change — a gate
// duration, an edge, a re-calibrated error rate — changes the hash.
func (d *Device) Hash() string {
	data, err := json.Marshal(d)
	if err != nil {
		// Marshal of a Device cannot fail: every field is a plain value.
		panic(fmt.Sprintf("target: hashing device %q: %v", d.Name, err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// deviceJSON is the wire form. Topology is declarative (a kind plus
// parameters, or an explicit edge list); calibration is inline.
type deviceJSON struct {
	Name           string              `json:"name"`
	NumQubits      int                 `json:"qubits"`
	CycleTimeNs    int                 `json:"cycle_time_ns"`
	Gates          map[string]GateSpec `json:"gates,omitempty"`
	MaxParallelOps int                 `json:"max_parallel_ops,omitempty"`
	Topology       *TopologySpec       `json:"topology,omitempty"`
	Calibration    *Calibration        `json:"calibration,omitempty"`
}

// TopologySpec is the declarative on-disk form of a connectivity graph.
type TopologySpec struct {
	Kind string `json:"kind"` // linear, ring, grid, full, star, surface17, chimera, custom
	Rows int    `json:"rows,omitempty"`
	Cols int    `json:"cols,omitempty"`
	K    int    `json:"k,omitempty"`
	// Edges lists explicit edges for kind "custom".
	Edges [][2]int `json:"edges,omitempty"`
}

// Build materialises the spec into a topology over n qubits.
func (spec *TopologySpec) Build(n int) (*topology.Topology, error) {
	if n <= 0 {
		// Guard before the topology constructors, which panic on
		// non-positive sizes.
		return nil, fmt.Errorf("target: topology %q needs a positive qubit count, got %d", spec.Kind, n)
	}
	switch spec.Kind {
	case "linear":
		return topology.Linear(n), nil
	case "ring":
		return topology.Ring(n), nil
	case "grid":
		if spec.Rows*spec.Cols != n {
			return nil, fmt.Errorf("target: grid %dx%d != %d qubits", spec.Rows, spec.Cols, n)
		}
		return topology.Grid(spec.Rows, spec.Cols), nil
	case "full":
		return topology.FullyConnected(n), nil
	case "star":
		return topology.Star(n), nil
	case "surface17":
		if n != 17 {
			return nil, fmt.Errorf("target: surface17 requires 17 qubits, got %d", n)
		}
		return topology.Surface17(), nil
	case "chimera":
		t := topology.Chimera(spec.Rows, spec.Cols, spec.K)
		if t.N != n {
			return nil, fmt.Errorf("target: chimera(%d,%d,%d) has %d qubits, config says %d",
				spec.Rows, spec.Cols, spec.K, t.N, n)
		}
		return t, nil
	case "custom":
		t := topology.New("custom", n)
		for _, e := range spec.Edges {
			t.AddEdge(e[0], e[1])
		}
		return t, nil
	default:
		return nil, fmt.Errorf("target: unknown topology kind %q", spec.Kind)
	}
}

// MarshalJSON renders the device in its canonical wire form. The
// topology is emitted as an explicit sorted edge list (kind "custom"),
// which makes the encoding — and therefore Hash — independent of how the
// topology was originally specified.
func (d *Device) MarshalJSON() ([]byte, error) {
	dj := deviceJSON{
		Name:           d.Name,
		NumQubits:      d.NumQubits,
		CycleTimeNs:    d.CycleTimeNs,
		Gates:          d.Gates,
		MaxParallelOps: d.MaxParallelOps,
		Calibration:    canonicalCalibration(d.Calibration),
	}
	if d.Topology != nil {
		dj.Topology = &TopologySpec{Kind: "custom", Edges: d.Topology.Edges()}
	}
	return json.Marshal(dj)
}

// canonicalCalibration returns the calibration with its edge list sorted,
// so the wire form (and the content hash built on it) does not depend on
// declaration order. Nil passes through.
func canonicalCalibration(cal *Calibration) *Calibration {
	if cal == nil {
		return nil
	}
	out := cal.Clone()
	for i, e := range out.Edges {
		if e.A > e.B {
			out.Edges[i].A, out.Edges[i].B = e.B, e.A
		}
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		if out.Edges[i].A != out.Edges[j].A {
			return out.Edges[i].A < out.Edges[j].A
		}
		return out.Edges[i].B < out.Edges[j].B
	})
	return out
}

// UnmarshalJSON parses the wire form, materialising the declarative
// topology spec. Use Parse to also validate.
func (d *Device) UnmarshalJSON(data []byte) error {
	var dj deviceJSON
	if err := json.Unmarshal(data, &dj); err != nil {
		return fmt.Errorf("target: bad device JSON: %w", err)
	}
	d.Name = dj.Name
	d.NumQubits = dj.NumQubits
	d.CycleTimeNs = dj.CycleTimeNs
	d.Gates = dj.Gates
	d.MaxParallelOps = dj.MaxParallelOps
	d.Topology = nil
	d.Calibration = canonicalCalibration(dj.Calibration)
	if dj.Topology != nil {
		if dj.NumQubits <= 0 {
			return fmt.Errorf("target: device %q declares a topology but %d qubits", dj.Name, dj.NumQubits)
		}
		topo, err := dj.Topology.Build(dj.NumQubits)
		if err != nil {
			return err
		}
		d.Topology = topo
	}
	return nil
}

// Parse decodes and validates a device from its JSON form — the entry
// point for device files loaded by the CLIs and for per-job target
// overrides submitted to qserv.
func Parse(data []byte) (*Device, error) {
	d := &Device{}
	if err := json.Unmarshal(data, d); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// LoadFile reads and validates a device JSON file — the -target flag of
// the CLIs.
func LoadFile(path string) (*Device, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// OverlayCalibrationFile returns a copy of the device re-calibrated with
// the table in the given JSON file, validated against the device — the
// -calibration flag of the CLIs. An empty path returns the device
// unchanged.
func OverlayCalibrationFile(dev *Device, path string) (*Device, error) {
	if path == "" {
		return dev, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cal Calibration
	if err := json.Unmarshal(data, &cal); err != nil {
		return nil, fmt.Errorf("target: bad calibration file %s: %w", path, err)
	}
	out := dev.WithCalibration(&cal)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Marshal renders the device as indented canonical JSON — the format of
// the golden device files under examples/devices/.
func (d *Device) Marshal() ([]byte, error) {
	compact, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	buf, err := json.MarshalIndent(json.RawMessage(compact), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
