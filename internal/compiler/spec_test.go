package compiler

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"
)

func TestParseSpecEntriesAndOptions(t *testing.T) {
	entries, err := ParseSpec(" decompose , map( lookahead = 8 , strategy = noise ) ,schedule")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("%d entries, want 3", len(entries))
	}
	if entries[0].Name != "decompose" || entries[0].Options != nil {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	m := entries[1]
	if m.Name != "map" || m.Options["lookahead"] != "8" || m.Options["strategy"] != "noise" {
		t.Errorf("map entry = %+v", m)
	}
	if entries[2].Name != "schedule" {
		t.Errorf("entry 2 = %+v", entries[2])
	}
	// Empty option lists are allowed.
	if _, err := ParseSpec("map(),schedule"); err != nil {
		t.Errorf("map() rejected: %v", err)
	}
}

// Malformed specs are rejected at parse time with position-carrying
// errors, never mid-compile.
func TestParseSpecMalformed(t *testing.T) {
	cases := []struct {
		spec    string
		wantPos int // zero-based offset reported by the SpecError
		wantMsg string
	}{
		{"map(", 3, "unterminated"},
		{"map(lookahead=8", 3, "unterminated"},
		{"map(x=)", 6, "empty value"},
		{"map(=3)", 4, "empty option key"},
		{"map(x)", 4, "missing '='"},
		{"map(x=1,x=2)", 8, "duplicate option \"x\""},
		{"map()x", 5, "expected ','"},
		{",map", 0, "empty pass name"},
		{"map,,schedule", 4, "empty pass name"},
		{"map,", 4, "empty pass name"},
		{"", 0, "empty pass spec"},
		{"   ", 0, "empty pass spec"},
		{"map)x", 3, "unexpected"},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("spec %q accepted", tc.spec)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("spec %q: error %T does not carry a position: %v", tc.spec, err, err)
			continue
		}
		if se.Pos != tc.wantPos {
			t.Errorf("spec %q: error at col %d, want col %d (%v)", tc.spec, se.Pos+1, tc.wantPos+1, err)
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("spec %q: error %q missing %q", tc.spec, err, tc.wantMsg)
		}
	}
}

// ResolveSpec rejects unknown passes, options on optionless passes and
// invalid option values for the map passes — all before compilation.
func TestResolveSpecValidatesOptions(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		wantMsg string
	}{
		{"teleport", "unknown pass"},
		{"decompose(x=1),schedule", "takes no options"},
		{"map(zoom=2)", "unknown option"},
		{"map(strategy=warp)", "not hop or noise"},
		{"map-noise", "unknown pass"},
		{"map(strategy=noise,zoom=2)", "unknown option"},
		{"map(lookahead=maybe)", "lookahead"},
		{"map(lookahead=-2)", "positive"},
		{"map(window=-1)", "positive"},
		{"map(window=4)", "option window=4 has no effect without lookahead"},
		{"map(lookahead=false,window=4)", "option window=4 has no effect without lookahead"},
		{"map(strategy=noise,window=4)", "option window=4 has no effect without lookahead"},
		{"schedule(policy=late)", "not asap or alap"},
		{"schedule(order=asap)", "unknown option \"order\" (available: policy)"},
		{"map(placement=random)", "not trivial or greedy"},
	} {
		_, err := ResolveSpec(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("spec %q: error %v, want substring %q", tc.spec, err, tc.wantMsg)
		}
	}
	bound, err := ResolveSpec("decompose,map(strategy=noise,lookahead=4,placement=greedy),schedule(policy=alap)")
	if err != nil {
		t.Fatal(err)
	}
	if len(bound) != 3 || bound[1].Pass.Name() != "map" || bound[1].Options["strategy"] != "noise" ||
		bound[1].Options["lookahead"] != "4" || bound[2].Options["policy"] != "alap" {
		t.Errorf("bound = %+v", bound)
	}
}

func TestPassOptionsGetters(t *testing.T) {
	o := PassOptions{"a": "8", "b": "true", "c": "x"}
	if n, err := o.Int("a", 0); err != nil || n != 8 {
		t.Errorf("Int(a) = %d, %v", n, err)
	}
	if n, err := o.Int("missing", 7); err != nil || n != 7 {
		t.Errorf("Int default = %d, %v", n, err)
	}
	if _, err := o.Int("c", 0); err == nil {
		t.Error("Int(c) accepted non-integer")
	}
	if b, err := o.Bool("b", false); err != nil || !b {
		t.Errorf("Bool(b) = %v, %v", b, err)
	}
	if _, err := o.Bool("c", false); err == nil {
		t.Error("Bool(c) accepted non-boolean")
	}
	if o.String("c", "") != "x" || o.String("missing", "d") != "d" {
		t.Error("String getter wrong")
	}
}

// mapOptionsFrom resolves a map pass's spec options; absent options
// leave MapOptions at the default (trivial placement, hop routing, no
// lookahead).
func TestMapOptionsOverlay(t *testing.T) {
	for _, tc := range []struct {
		opts     PassOptions
		want     MapOptions
		strategy string
	}{
		{nil, MapOptions{}, "hop"},
		{PassOptions{"lookahead": "8", "placement": "greedy", "strategy": "noise"},
			MapOptions{Placement: GreedyPlacement, Lookahead: true, LookaheadWindow: 8}, "noise"},
		{PassOptions{"lookahead": "true", "window": "3"}, MapOptions{Lookahead: true, LookaheadWindow: 3}, "hop"},
		{PassOptions{"lookahead": "false"}, MapOptions{}, "hop"},
		{PassOptions{"placement": "trivial", "strategy": "hop"}, MapOptions{}, "hop"},
	} {
		opts, strategy, err := mapOptionsFrom(tc.opts)
		if err != nil {
			t.Fatalf("%v: %v", tc.opts, err)
		}
		if opts != tc.want || strategy != tc.strategy {
			t.Errorf("%v: opts %+v strategy %s, want %+v strategy %s", tc.opts, opts, strategy, tc.want, tc.strategy)
		}
	}
}

// schedule(policy=…) selects the scheduling policy; ASAP by default.
func TestSchedulePolicyOption(t *testing.T) {
	for spec, want := range map[string]Policy{
		"schedule":                  ASAP,
		"schedule(policy=asap)":     ASAP,
		"schedule(policy=alap)":     ALAP,
		"map,schedule(policy=alap)": ALAP,
	} {
		pl, err := NewPipeline(spec)
		if err != nil {
			t.Fatal(err)
		}
		c := circuit.New("s", 3).H(0).CNOT(0, 1).H(2).Measure(0)
		ctx := &PassContext{Platform: Superconducting(), Circuit: c}
		if _, err := pl.Run(ctx); err != nil {
			t.Fatal(err)
		}
		sched, err := ScheduleCircuit(ctx.Circuit, ctx.Platform, want)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.Schedule.Policy != want || !reflect.DeepEqual(ctx.Schedule, sched) {
			t.Errorf("%s: scheduled %s, want the %s schedule", spec, ctx.Schedule.Policy, want)
		}
	}
}
