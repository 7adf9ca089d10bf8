package openql_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/microarch"
	"repro/internal/openql"
	"repro/internal/target"
)

// transmon7JSON is a 7-qubit transmon patch with the superconducting
// preset's gate set and a zero-error calibration: the realistic target of
// a recalibrated cold job, on which every shot decodes through eQASM and
// the micro-architecture without drawing noise.
const transmon7JSON = `{
  "name": "transmon7", "qubits": 7, "cycle_time_ns": 20,
  "gates": {"barrier": {"duration": 0}, "cz": {"duration": 2}, "i": {"duration": 1},
            "measure": {"duration": 15}, "mx90": {"duration": 1}, "my90": {"duration": 1},
            "prep_z": {"duration": 10}, "rz": {"duration": 1}, "wait": {"duration": 1},
            "x90": {"duration": 1}, "y90": {"duration": 1}},
  "topology": {"kind": "custom", "edges": [[0,2],[0,3],[1,3],[1,4],[2,5],[3,5],[3,6],[4,6]]},
  "calibration": {"qubits": [
    {"t1_ns": 0, "t2_ns": 0, "readout_error": 0, "single_qubit_error": 0},
    {"t1_ns": 0, "t2_ns": 0, "readout_error": 0, "single_qubit_error": 0},
    {"t1_ns": 0, "t2_ns": 0, "readout_error": 0, "single_qubit_error": 0},
    {"t1_ns": 0, "t2_ns": 0, "readout_error": 0, "single_qubit_error": 0},
    {"t1_ns": 0, "t2_ns": 0, "readout_error": 0, "single_qubit_error": 0},
    {"t1_ns": 0, "t2_ns": 0, "readout_error": 0, "single_qubit_error": 0},
    {"t1_ns": 0, "t2_ns": 0, "readout_error": 0, "single_qubit_error": 0}]}
}`

func transmon7Stack(t testing.TB, seed int64) *core.Stack {
	t.Helper()
	dev, err := target.Parse([]byte(transmon7JSON))
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewStackForDevice(dev, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// coldQFT is one job of the cold benchmark mix: a 5-qubit QFT without
// final swaps on a random basis state, each phase undone by an rz and an
// h, a random X mask on top, every qubit measured — and a random phase on
// the fresh qubit 0 in front that makes the circuit unique.
func coldQFT(rng *rand.Rand) *openql.Program {
	const n = 5
	c := circuit.New("cold", n).RZ(0, rng.Float64()*2*math.Pi)
	in := make([]bool, n)
	for q := range in {
		if in[q] = rng.Intn(2) == 1; in[q] {
			c.X(q)
		}
	}
	for j := 0; j < n; j++ {
		c.H(j)
		for k := j + 1; k < n; k++ {
			c.CPhase(k, j, math.Pi/float64(int(1)<<(k-j)))
		}
	}
	for j := 0; j < n; j++ {
		var phi float64
		for k := j; k < n; k++ {
			if in[k] {
				phi += math.Pi / float64(int(1)<<(k-j))
			}
		}
		c.RZ(j, -phi).H(j)
	}
	for q := 0; q < n; q++ {
		if rng.Intn(2) == 1 {
			c.X(q)
		}
	}
	for q := 0; q < n; q++ {
		c.Measure(q)
	}
	return openql.ProgramFromCircuit("cold", c)
}

// digestSpec is the default pipeline with the schedule policy and the
// routing lookahead spelled out.
func digestSpec(policy compiler.Policy, lookahead bool) string {
	return fmt.Sprintf("decompose,optimize,map(lookahead=%v),lower-swaps,optimize-lowered,schedule(policy=%s),assemble",
		lookahead, policy)
}

// artefactDigest hashes everything one compile-and-run emits: the cQASM
// text, the eQASM text, the schedule (gate, cycle, duration), the map
// result and, on realistic stacks, the micro-architecture trace (totals
// and every pulse) and the seeded counts. An error is hashed in place of
// the artefacts it stopped.
func artefactDigest(stack *core.Stack, prog *openql.Program) string {
	h := sha256.New()
	compiled, err := stack.Compile(prog)
	if err != nil {
		fmt.Fprintf(h, "compile: %v\n", err)
		return hex.EncodeToString(h.Sum(nil))[:16]
	}
	io.WriteString(h, compiled.CQASM())
	if compiled.EQASM != nil {
		io.WriteString(h, compiled.EQASM.String())
	}
	s := compiled.Schedule
	fmt.Fprintf(h, "schedule %d qubits, policy %s, makespan %d\n", s.NumQubits, s.Policy, s.Makespan)
	for _, sg := range s.Gates {
		fmt.Fprintf(h, "%s @%d +%d\n", sg.Gate, sg.Cycle, sg.Duration)
	}
	if mr := compiled.MapResult; mr != nil {
		fmt.Fprintf(h, "map %v -> %v, %d swaps, latency %x\n",
			mr.InitialLayout, mr.FinalLayout, mr.AddedSwaps, math.Float64bits(mr.LatencyFactor))
		for _, g := range mr.Circuit.Gates {
			fmt.Fprintf(h, "%s\n", g)
		}
		hashIntMap(h, "measure", mr.MeasurePhys)
	}
	if stack.Mode != openql.RealisticQubits {
		return hex.EncodeToString(h.Sum(nil))[:16]
	}
	rep, err := stack.RunCompiled(compiled, prog.NumQubits, 64, 7)
	if err != nil {
		fmt.Fprintf(h, "run: %v\n", err)
		return hex.EncodeToString(h.Sum(nil))[:16]
	}
	tr := rep.Trace
	fmt.Fprintf(h, "trace %s: %d cycles, %d ns, queue %d, %d instrs, %d events\n",
		tr.Config, tr.TotalCycles, tr.TotalNs, tr.MaxQueueFill, tr.InstrCount, tr.EventCount)
	kinds := make([]string, 0, len(tr.ChannelBusyNs))
	for k := range tr.ChannelBusyNs {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(h, "busy %s %d\n", k, tr.ChannelBusyNs[microarch.ChannelKind(k)])
	}
	for _, p := range tr.Pulses {
		fmt.Fprintf(h, "pulse %d %d %s %d %d %x\n", p.Qubit, p.Codeword, p.Channel, p.StartNs, p.DurationNs, math.Float64bits(p.Param))
	}
	hashIntMap(h, "counts", rep.Result.Counts)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashIntMap(h hash.Hash, label string, m map[int]int) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s %d %d\n", label, k, m[k])
	}
}

// artefactDigests pins every compiled artefact of the differential corpus
// on the three presets under both schedule policies, plus a cold-mix job
// on the zero-error transmon, byte for byte. Unlike
// TestDefaultPipelineMatchesLegacy, whose oracle calls the same pass
// functions, these digests catch a change inside a pass, the eQASM
// assembler or the micro-architecture decode.
var artefactDigests = map[string]string{
	"perfect/alap/qft":            "c7bf7c818efb2c68",
	"perfect/alap/rand0":          "252383f8215ef103",
	"perfect/alap/rand1":          "e3a20e2dd2b96d7a",
	"perfect/alap/rand2":          "672ca0f8d1511434",
	"perfect/alap/rand3":          "bb4ce08993ec3ecf",
	"perfect/alap/struct":         "23078b5a49338329",
	"perfect/asap/qft":            "5912a2acc13006cc",
	"perfect/asap/rand0":          "addd2bd8cba52f63",
	"perfect/asap/rand1":          "b496e3557c1d442c",
	"perfect/asap/rand2":          "70826537332070a1",
	"perfect/asap/rand3":          "2850707e92cf21d8",
	"perfect/asap/struct":         "3cf4b99d9f73e4c0",
	"semiconducting/alap/qft":     "0b82c063abfcf48e",
	"semiconducting/alap/rand0":   "851cf78c90204b20",
	"semiconducting/alap/rand1":   "8bf3f5329ec04d60",
	"semiconducting/alap/rand2":   "e7160dd5d51078a1",
	"semiconducting/alap/rand3":   "eb2ef48eb1e2ffe3",
	"semiconducting/alap/struct":  "6459fc40c84c3ea8",
	"semiconducting/asap/qft":     "1ab1963d4af859a8",
	"semiconducting/asap/rand0":   "1ff14e8ba33c3162",
	"semiconducting/asap/rand1":   "1807fc158c488902",
	"semiconducting/asap/rand2":   "f885aa1603e54e06",
	"semiconducting/asap/rand3":   "6257e611f012606c",
	"semiconducting/asap/struct":  "87937cf82490901a",
	"superconducting/alap/qft":    "656f97cda727575a",
	"superconducting/alap/rand0":  "9a4dc04a1347dd9d",
	"superconducting/alap/rand1":  "96f2c18e7c91549c",
	"superconducting/alap/rand2":  "a329644a4285bdb3",
	"superconducting/alap/rand3":  "4550d45371a24154",
	"superconducting/alap/struct": "6459fc40c84c3ea8",
	"superconducting/asap/qft":    "d8e1120d2438eac0",
	"superconducting/asap/rand0":  "6ce3151277a8a2d6",
	"superconducting/asap/rand1":  "5c852bd36d5e2797",
	"superconducting/asap/rand2":  "7127698a68f311bc",
	"superconducting/asap/rand3":  "9081dab8a22026c1",
	"superconducting/asap/struct": "87937cf82490901a",
	"transmon7/alap/cold-qft":     "22f503cde2c2b56f",
	"transmon7/asap/cold-qft":     "dac0f0cad24fce3b",
}

func TestCompileArtefactDigests(t *testing.T) {
	presets := []struct {
		name  string
		stack func() *core.Stack
	}{
		{"perfect", func() *core.Stack { return core.NewPerfect(5, 7) }},
		{"superconducting", func() *core.Stack { return core.NewSuperconducting(7) }},
		{"semiconducting", func() *core.Stack { return core.NewSemiconducting(7) }},
	}
	got := map[string]string{}
	for _, policy := range []compiler.Policy{compiler.ASAP, compiler.ALAP} {
		for _, ps := range presets {
			for pi, prog := range openql.DiffCorpus(5, 42) {
				stack := ps.stack()
				stack.Passes = digestSpec(policy, pi%2 == 0)
				got[fmt.Sprintf("%s/%s/%s", ps.name, policy, prog.Name)] = artefactDigest(stack, prog)
			}
		}
		stack := transmon7Stack(t, 7)
		stack.Passes = digestSpec(policy, false)
		got[fmt.Sprintf("transmon7/%s/cold-qft", policy)] = artefactDigest(stack, coldQFT(rand.New(rand.NewSource(5))))
	}
	labels := make([]string, 0, len(got))
	for l := range got {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		if want := artefactDigests[l]; got[l] != want {
			t.Errorf("%s: digest %s, want %s", l, got[l], want)
		}
	}
	if len(got) != len(artefactDigests) {
		t.Errorf("%d digests computed, %d pinned", len(got), len(artefactDigests))
	}
}

// sharedPrefixCache is a concurrency-safe compiler.PrefixCache for tests:
// one entry per key, computed once while concurrent callers of the same
// key wait, never evicted.
type sharedPrefixCache struct {
	mu      sync.Mutex
	entries map[string]*prefixEntry
}

type prefixEntry struct {
	once sync.Once
	art  *compiler.PrefixArtefact
	err  error
}

func (c *sharedPrefixCache) GetOrCompute(key string, compute func() (*compiler.PrefixArtefact, error)) (*compiler.PrefixArtefact, bool, error) {
	c.mu.Lock()
	e, hit := c.entries[key]
	if !hit {
		e = &prefixEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.art, e.err = compute() })
	return e.art, hit, e.err
}

// snapshot returns the cache's artefacts in key order, deep-copied.
func (c *sharedPrefixCache) snapshot(t *testing.T) []*compiler.PrefixArtefact {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*compiler.PrefixArtefact, len(keys))
	for i, k := range keys {
		out[i] = deepCopy(t, c.entries[k].art)
	}
	return out
}

// deepCopy copies v through every pointer, slice, map and interface it
// reaches. It handles exported struct fields only and fails on a set
// unexported one, which the copy could not carry.
func deepCopy[T any](t *testing.T, v T) T {
	t.Helper()
	return copyValue(t, reflect.ValueOf(&v).Elem()).Interface().(T)
}

func copyValue(t *testing.T, v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			out.Set(reflect.New(v.Type().Elem()))
			out.Elem().Set(copyValue(t, v.Elem()))
		}
	case reflect.Interface:
		if !v.IsNil() {
			out.Set(copyValue(t, v.Elem()))
		}
	case reflect.Slice:
		if !v.IsNil() {
			out.Set(reflect.MakeSlice(v.Type(), v.Len(), v.Len()))
			for i := 0; i < v.Len(); i++ {
				out.Index(i).Set(copyValue(t, v.Index(i)))
			}
		}
	case reflect.Map:
		if !v.IsNil() {
			out.Set(reflect.MakeMapWithSize(v.Type(), v.Len()))
			for it := v.MapRange(); it.Next(); {
				out.SetMapIndex(it.Key(), copyValue(t, it.Value()))
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				if !v.Field(i).IsZero() {
					t.Fatalf("deepCopy: %s.%s is unexported and set", v.Type(), v.Type().Field(i).Name)
				}
				continue
			}
			out.Field(i).Set(copyValue(t, v.Field(i)))
		}
	default:
		out.Set(v)
	}
	return out
}

// untouchedProgram builds the same multi-kernel program on every call,
// so a second build is a deep snapshot of the first: a repeated kernel,
// gates the prefix decomposes and cancels, routing on the transmon patch.
func untouchedProgram() *openql.Program {
	p := openql.NewProgram("untouched", 5)
	p.AddKernel(openql.NewKernel("prep", 5).H(0).H(1).Toffoli(0, 1, 2).X(3).X(3))
	p.AddKernel(openql.NewKernel("mix", 5).CNOT(0, 4).RZ(0, 0.3).RZ(0, 0.4).CZ(1, 4).Gate("swap", []int{2, 4}))
	p.AddKernel(openql.NewKernel("loop", 5).RY(1, 0.7).CNOT(1, 3).Repeat(3))
	meas := openql.NewKernel("meas", 5)
	for q := 0; q < 5; q++ {
		meas.Measure(q)
	}
	p.AddKernel(meas)
	return p
}

// TestCompileLeavesInputsAndCachesUntouched pins the ownership rule the
// lean compile path relies on: passes mutate only what they allocated
// during the compile. Eight goroutines compile the same kernels through
// one shared prefix cache, while the cached full artefact runs twice;
// afterwards the input program, every prefix-cache entry and the cached
// artefact must equal their snapshots. Run it under -race.
func TestCompileLeavesInputsAndCachesUntouched(t *testing.T) {
	cache := &sharedPrefixCache{entries: map[string]*prefixEntry{}}
	prog, progSnap := untouchedProgram(), untouchedProgram()
	stack := transmon7Stack(t, 3)
	stack.PrefixCache = cache
	stack.KernelWorkers = 1
	cached, err := stack.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	cacheSnap := cache.snapshot(t)
	artSnap := deepCopy(t, cached)
	want := cached.EQASM.String()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := *stack
			if w%4 == 3 {
				// An ALAP variant reuses the prefix entries with another
				// suffix.
				s.Passes = digestSpec(compiler.ALAP, false)
			}
			got, err := s.Compile(prog)
			if err != nil {
				t.Error(err)
				return
			}
			if s.Passes == "" && got.EQASM.String() != want {
				t.Errorf("goroutine %d: eQASM differs from the cached artefact's", w)
			}
		}(w)
	}
	for run := 0; run < 2; run++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := stack.RunCompiled(cached, prog.NumQubits, 16, 11); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if !reflect.DeepEqual(prog, progSnap) {
		t.Error("compiling mutated the input program")
	}
	if got := cache.snapshot(t); !reflect.DeepEqual(got, cacheSnap) {
		t.Errorf("compiling mutated the prefix cache: %d entries, snapshot had %d", len(got), len(cacheSnap))
	}
	if !reflect.DeepEqual(cached, artSnap) {
		t.Error("compiling or running mutated the cached artefact")
	}
}
