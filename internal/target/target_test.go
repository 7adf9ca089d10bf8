package target

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// randomDevice builds a structurally valid random device: random size,
// random ring/linear/custom topology, random gate table and a random
// (sometimes absent) calibration.
func randomDevice(rng *rand.Rand) *Device {
	n := 2 + rng.Intn(10)
	d := &Device{
		Name:           "dev-" + string(rune('a'+rng.Intn(26))),
		NumQubits:      n,
		CycleTimeNs:    1 + rng.Intn(200),
		MaxParallelOps: rng.Intn(4),
		Gates:          map[string]GateSpec{},
	}
	for _, g := range []string{"rz", "x90", "cz", "measure"} {
		if rng.Intn(3) > 0 {
			d.Gates[g] = GateSpec{DurationCycles: 1 + rng.Intn(20)}
		}
	}
	switch rng.Intn(4) {
	case 0:
		d.Topology = topology.Linear(n)
	case 1:
		d.Topology = topology.Ring(n)
	case 2:
		t := topology.New("custom", n)
		for i := 0; i+1 < n; i++ {
			t.AddEdge(i, i+1)
		}
		for k := 0; k < n/2; k++ {
			t.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		d.Topology = t
	default:
		// all-to-all
	}
	if rng.Intn(3) > 0 {
		cal := &Calibration{Qubits: make([]QubitCalibration, n)}
		for q := range cal.Qubits {
			cal.Qubits[q] = QubitCalibration{
				T1Ns:             float64(10_000 + rng.Intn(90_000)),
				T2Ns:             float64(5_000 + rng.Intn(40_000)),
				ReadoutError:     float64(rng.Intn(100)) / 1000,
				SingleQubitError: float64(rng.Intn(50)) / 10000,
			}
		}
		if d.Topology != nil {
			for _, e := range d.Topology.Edges() {
				if rng.Intn(4) > 0 {
					cal.Edges = append(cal.Edges, EdgeCalibration{
						A: e[0], B: e[1], TwoQubitError: float64(rng.Intn(200)) / 10000,
					})
				}
			}
		}
		d.Calibration = cal
	}
	return d
}

// Property: marshal → unmarshal → hash equal, over randomized devices.
func TestDeviceJSONRoundTripHashEqual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDevice(rng)
		if err := d.Validate(); err != nil {
			t.Fatalf("random device invalid: %v", err)
		}
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("parse of own marshal failed: %v\n%s", err, data)
		}
		if back.Hash() != d.Hash() {
			t.Logf("hash mismatch after round trip:\n%s", data)
			return false
		}
		// A second round trip must be byte-stable (canonical form).
		data2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		return string(data) == string(data2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHashChangesWithCalibration(t *testing.T) {
	d := Superconducting()
	base := d.Hash()
	if d.Hash() != base {
		t.Fatal("hash is not stable across calls")
	}
	recal := d.WithCalibration(d.Calibration.Clone().SetEdgeError(0, 9, 0.2))
	if recal.Hash() == base {
		t.Error("re-calibrating an edge did not change the device hash")
	}
	if d.Hash() != base {
		t.Error("WithCalibration mutated the receiver")
	}
	if d.WithCalibration(d.Calibration.Clone()).Hash() != base {
		t.Error("identical calibration changed the hash")
	}
	uncal := d.WithCalibration(nil)
	if uncal.Hash() == base {
		t.Error("dropping calibration did not change the hash")
	}
}

func TestHashIndependentOfEdgeOrder(t *testing.T) {
	d := Semiconducting()
	shuffled := d.Clone()
	for i, j := 0, len(shuffled.Calibration.Edges)-1; i < j; i, j = i+1, j-1 {
		shuffled.Calibration.Edges[i], shuffled.Calibration.Edges[j] =
			shuffled.Calibration.Edges[j], shuffled.Calibration.Edges[i]
	}
	if d.Hash() != shuffled.Hash() {
		t.Error("calibration edge order leaks into the content hash")
	}
}

func TestDeviceValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(d *Device)
		want string
	}{
		{"no qubits", func(d *Device) { d.NumQubits = 0 }, "no qubits"},
		{"topology size", func(d *Device) { d.Topology = topology.Linear(5) }, "topology size"},
		{"negative duration", func(d *Device) { d.Gates["cz"] = GateSpec{DurationCycles: -1} }, "negative duration"},
		{"huge duration", func(d *Device) { d.Gates["cz"] = GateSpec{DurationCycles: MaxDurationCycles + 1} }, "exceeds"},
		{"cal count", func(d *Device) { d.Calibration.Qubits = d.Calibration.Qubits[:3] }, "qubit entries"},
		{"cal readout", func(d *Device) { d.Calibration.Qubits[0].ReadoutError = 1.5 }, "readout error"},
		{"cal 1q error", func(d *Device) { d.Calibration.Qubits[2].SingleQubitError = -0.1 }, "single-qubit error"},
		{"cal T1", func(d *Device) { d.Calibration.Qubits[1].T1Ns = -1 }, "negative T1/T2"},
		{"cal edge range", func(d *Device) { d.Calibration.Edges[0].B = 99 }, "out of range"},
		{"cal non-coupler", func(d *Device) {
			d.Calibration.Edges[0] = EdgeCalibration{A: 0, B: 4, TwoQubitError: 0.01}
		}, "not a coupler"},
		{"cal duplicate edge", func(d *Device) {
			d.Calibration.Edges = append(d.Calibration.Edges, d.Calibration.Edges[0])
		}, "listed twice"},
		{"cal edge error", func(d *Device) { d.Calibration.Edges[0].TwoQubitError = 1 }, "outside [0,1)"},
	}
	for _, tc := range cases {
		d := Semiconducting()
		tc.mut(d)
		err := d.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := Semiconducting().Validate(); err != nil {
		t.Errorf("unmutated preset invalid: %v", err)
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	for _, src := range []string{
		`not json`,
		`{"name":"x","qubits":0}`,
		// A declared topology with no qubits must error, not panic in
		// the topology constructors.
		`{"name":"x","qubits":0,"topology":{"kind":"linear"}}`,
		`{"name":"x","qubits":-2,"topology":{"kind":"custom","edges":[[0,1]]}}`,
		`{"name":"x","qubits":3,"topology":{"kind":"nosuch"}}`,
		`{"name":"x","qubits":3,"topology":{"kind":"grid","rows":2,"cols":2}}`,
		`{"name":"x","qubits":3,"calibration":{"qubits":[{"t1_ns":1}]}}`,
	} {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse accepted %q", src)
		}
	}
}

func TestParseDeclarativeTopologies(t *testing.T) {
	for _, tc := range []struct {
		src   string
		edges int
	}{
		{`{"name":"l","qubits":4,"topology":{"kind":"linear"}}`, 3},
		{`{"name":"r","qubits":4,"topology":{"kind":"ring"}}`, 4},
		{`{"name":"g","qubits":4,"topology":{"kind":"grid","rows":2,"cols":2}}`, 4},
		{`{"name":"f","qubits":4,"topology":{"kind":"full"}}`, 6},
		{`{"name":"s","qubits":4,"topology":{"kind":"star"}}`, 3},
		{`{"name":"s17","qubits":17,"topology":{"kind":"surface17"}}`, 24},
		{`{"name":"c","qubits":3,"topology":{"kind":"custom","edges":[[0,1],[1,2]]}}`, 2},
	} {
		d, err := Parse([]byte(tc.src))
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if d.Topology.NumEdges() != tc.edges {
			t.Errorf("%s: %d edges, want %d", tc.src, d.Topology.NumEdges(), tc.edges)
		}
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		d, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		if d.Name != name {
			t.Errorf("preset %q named %q", name, d.Name)
		}
		// Fresh instances: mutating one must not leak into the next.
		if d.Calibration != nil {
			d.Calibration.Qubits[0].ReadoutError = 0.9
			d2, _ := Preset(name)
			if d2.Calibration.Qubits[0].ReadoutError == 0.9 {
				t.Errorf("preset %q shares calibration state across calls", name)
			}
		}
	}
	if _, err := Preset("nosuch"); err == nil || !strings.Contains(err.Error(), "perfect") {
		t.Errorf("unknown-preset error does not list presets: %v", err)
	}
	if sc := Superconducting(); sc.Calibration.EdgeError(0, 9) != 5e-3 {
		t.Error("superconducting preset missing uniform edge calibration")
	}
}

func TestCalibrationLookupsAndUniformity(t *testing.T) {
	topo := topology.Linear(3)
	cal := Uniform(3, topo, QubitCalibration{T1Ns: 1000}, 0.01)
	if !cal.UniformEdges(topo) {
		t.Error("uniform table not reported uniform")
	}
	cal.SetEdgeError(1, 2, 0.3)
	if cal.UniformEdges(topo) {
		t.Error("skewed table reported uniform")
	}
	if got := cal.EdgeError(2, 1); got != 0.3 {
		t.Errorf("EdgeError reversed orientation = %g, want 0.3", got)
	}
	if got := cal.EdgeError(0, 2); got != 0 {
		t.Errorf("missing edge error = %g, want 0", got)
	}
	if cal.Qubit(0).T1Ns != 1000 || cal.Qubit(99) != (QubitCalibration{}) {
		t.Error("Qubit lookup wrong")
	}
	var nilCal *Calibration
	if !nilCal.UniformEdges(topo) || nilCal.EdgeError(0, 1) != 0 || nilCal.Qubit(0) != (QubitCalibration{}) {
		t.Error("nil calibration accessors not zero-valued")
	}

	// All-to-all (nil topology): uniform iff listed errors are equal and
	// either zero or covering every pair.
	full := &Calibration{Qubits: make([]QubitCalibration, 3)}
	if !full.UniformEdges(nil) {
		t.Error("edgeless all-to-all table not uniform")
	}
	full.SetEdgeError(0, 1, 0.01).SetEdgeError(0, 2, 0.01).SetEdgeError(1, 2, 0.01)
	if !full.UniformEdges(nil) {
		t.Error("fully-listed equal-error all-to-all table not uniform")
	}
	partial := &Calibration{Qubits: make([]QubitCalibration, 3)}
	partial.SetEdgeError(0, 1, 0.01)
	if partial.UniformEdges(nil) {
		t.Error("partially-listed nonzero all-to-all table reported uniform")
	}
	zeros := &Calibration{Qubits: make([]QubitCalibration, 3)}
	zeros.SetEdgeError(0, 1, 0)
	if !zeros.UniformEdges(nil) {
		t.Error("all-zero listed errors not uniform")
	}
}
