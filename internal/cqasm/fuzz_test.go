package cqasm

import (
	"reflect"
	"testing"
)

// FuzzParse checks that every program Parse accepts survives a
// Parse(Print(p)) round trip: the printed text parses again, prints the
// same, and holds the same register and subcircuits. (Subcircuits are
// compared rather than flattened: an iteration count can make the flat
// circuit huge.) The seed corpus is in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		text := Print(p)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\nsource %q\nprinted %q", err, src, text)
		}
		if again := Print(back); again != text {
			t.Fatalf("round trip changed the program\nprinted %q\nreprinted %q", text, again)
		}
		if back.NumQubits != p.NumQubits || !reflect.DeepEqual(back.Subcircuits, p.Subcircuits) {
			t.Fatalf("round trip changed the program\nsource %q\nprinted %q", src, text)
		}
	})
}
