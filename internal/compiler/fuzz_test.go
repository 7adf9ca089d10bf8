package compiler

import (
	"slices"
	"testing"
)

// FuzzParseSpec checks the pass-spec parser on any input: NewPipeline
// returns a pipeline or an error and never panics, and an accepted
// spec's canonical form — the spelling the full-artefact cache key is
// built from — parses again to the same canonical form and the same
// passes. The seed corpus is in testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		pl, err := NewPipeline(spec)
		if err != nil {
			return
		}
		canon := pl.Canonical()
		back, err := NewPipeline(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, spec, err)
		}
		if again := back.Canonical(); again != canon {
			t.Fatalf("canonical form of %q is %q, re-parsed %q", spec, canon, again)
		}
		if !slices.Equal(back.Passes(), pl.Passes()) {
			t.Fatalf("canonical form %q of %q has passes %v, want %v", canon, spec, back.Passes(), pl.Passes())
		}
	})
}
