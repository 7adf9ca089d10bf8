package lint_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/detmap"
	"repro/internal/lint/fpfields"
	"repro/internal/lint/rngwalk"
	"repro/internal/lint/spanend"
)

// TestRepoIsLintClean runs every qlint analyzer over the whole module
// and requires zero findings — the same gate `make lint` applies, kept
// inside the test suite so a violation fails `go test ./...` even on a
// machine that never runs make. New violations must be fixed or carry
// an explicit //qlint:... annotation with a rationale.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	l, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	analyzers := []*lint.Analyzer{
		detmap.Analyzer,
		fpfields.Analyzer,
		rngwalk.Analyzer,
		spanend.Analyzer,
	}
	findings, err := lint.Run(l, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
}

// unimported names the packages under internal/ that no non-test file
// outside them imports, each with why it stays.
var unimported = map[string]string{
	"internal/density":      "the density-matrix oracle the Pauli-twirling item on ROADMAP.md adopts",
	"internal/lint/lintest": "the analyzer test harness, imported by analyzer tests only",
}

// TestNoOrphanPackages requires every package under internal/ to be
// imported by some non-test Go file outside itself, or to be listed in
// unimported with a reason: a package nothing builds is dead code.
func TestNoOrphanPackages(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dirs, err := l.ModuleDirs()
	if err != nil {
		t.Fatal(err)
	}
	// importers maps each import path to the module directories whose
	// non-test files import it.
	importers := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if importers[path] == nil {
					importers[path] = map[string]bool{}
				}
				importers[path][dir] = true
			}
		}
	}
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		imported := false
		for from := range importers["repro/"+dir] {
			imported = imported || from != dir
		}
		reason, listed := unimported[dir]
		switch {
		case !imported && !listed:
			t.Errorf("%s: no non-test file outside it imports it; delete it or list it in unimported with a reason", dir)
		case imported && listed:
			t.Errorf("%s: listed in unimported (%q) but imported; drop the entry", dir, reason)
		}
	}
	for dir := range unimported {
		if _, err := os.Stat(filepath.Join(root, dir)); err != nil {
			t.Errorf("%s: listed in unimported but missing: %v", dir, err)
		}
	}
}
