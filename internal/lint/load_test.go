package lint

import (
	"go/ast"
	"go/types"
	"testing"
)

func TestLoaderLoadsModulePackages(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if l.modPath != "repro" {
		t.Fatalf("module path = %q, want repro", l.modPath)
	}
	pkg, err := l.Load("repro/internal/qx")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Info == nil || len(pkg.Files) == 0 {
		t.Fatal("module package loaded without syntax or type info")
	}
	// Cross-package type info must be live: find a range statement over
	// a map somewhere in the package (result.go iterates Counts).
	found := false
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if tv, ok := pkg.Info.Types[rs.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					found = true
				}
			}
			return true
		})
	}
	if !found {
		t.Fatal("no map-typed range found in qx — type info incomplete")
	}
}

func TestLoaderExpandPatterns(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	all, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"repro":               false,
		"repro/internal/qx":   false,
		"repro/internal/lint": false,
		"repro/cmd/qservd":    false,
	}
	for _, p := range all {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, ok := range want {
		if !ok {
			t.Errorf("Expand(./...) missing %s (got %d packages)", p, len(all))
		}
	}
	sub, err := l.Expand([]string{"./internal/qx/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 || sub[0] != "repro/internal/qx" {
		t.Fatalf("Expand(./internal/qx/...) = %v", sub)
	}
}
