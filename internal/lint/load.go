package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package. Module packages carry
// full syntax and type information; dependency packages (the standard
// library) are loaded API-only.
type Package struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors collects non-fatal type-checker complaints. Module
	// packages must load clean (the driver refuses to analyze over a
	// broken type graph); dependency packages tolerate them.
	TypeErrors []error
}

// A Loader parses and type-checks packages from source, offline: module
// packages resolve under the module root, everything else under
// GOROOT/src (with the GOROOT vendor directory as fallback). Loads are
// memoized, so the standard library is checked once per process —
// bodies skipped — however many packages import it.
type Loader struct {
	Fset *token.FileSet
	// Extra maps additional import paths to directories — how test
	// fixtures outside the module tree (testdata/src/<pkg>) load.
	Extra map[string]string

	ctx     build.Context
	modRoot string
	modPath string
	goroot  string
	pkgs    map[string]*loadResult
}

type loadResult struct {
	pkg *Package
	err error
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	modRoot, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	// Cgo-transparent loading: with cgo off the standard library
	// selects its pure-Go fallbacks, so no file ever imports "C".
	ctx.CgoEnabled = false
	return &Loader{
		Fset:    token.NewFileSet(),
		ctx:     ctx,
		modRoot: modRoot,
		modPath: modPath,
		goroot:  findGOROOT(),
		pkgs:    map[string]*loadResult{},
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and reads its
// module path.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// findGOROOT resolves the toolchain root, preferring the baked-in value
// and falling back to `go env GOROOT`.
func findGOROOT() string {
	if root := runtime.GOROOT(); root != "" {
		if _, err := os.Stat(filepath.Join(root, "src")); err == nil {
			return root
		}
	}
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// inModule reports whether the import path belongs to the loader's
// module (or is a registered fixture path) and therefore loads with
// full bodies and type info.
func (l *Loader) inModule(path string) bool {
	if _, ok := l.Extra[path]; ok {
		return true
	}
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// dirFor maps an import path to its source directory.
func (l *Loader) dirFor(path string) (string, error) {
	if dir, ok := l.Extra[path]; ok {
		return dir, nil
	}
	if path == l.modPath {
		return l.modRoot, nil
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modRoot, filepath.FromSlash(rest)), nil
	}
	if l.goroot == "" {
		return "", fmt.Errorf("lint: GOROOT not found resolving %q", path)
	}
	std := filepath.Join(l.goroot, "src", filepath.FromSlash(path))
	if _, err := os.Stat(std); err == nil {
		return std, nil
	}
	vendored := filepath.Join(l.goroot, "src", "vendor", filepath.FromSlash(path))
	if _, err := os.Stat(vendored); err == nil {
		return vendored, nil
	}
	return "", fmt.Errorf("lint: cannot resolve import %q (not in module %s or GOROOT)", path, l.modPath)
}

// Load parses and type-checks the package at the import path, memoized.
func (l *Loader) Load(path string) (*Package, error) {
	if path == "unsafe" {
		return &Package{PkgPath: "unsafe", Types: types.Unsafe}, nil
	}
	if res, ok := l.pkgs[path]; ok {
		if res == nil {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		return res.pkg, res.err
	}
	l.pkgs[path] = nil // cycle marker
	pkg, err := l.load(path)
	l.pkgs[path] = &loadResult{pkg: pkg, err: err}
	return pkg, err
}

func (l *Loader) load(path string) (*Package, error) {
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	full := l.inModule(path)
	pkg := &Package{PkgPath: path, Dir: dir}
	conf := types.Config{
		Importer:         importerFor(l),
		FakeImportC:      true,
		IgnoreFuncBodies: !full,
		Sizes:            types.SizesFor("gc", build.Default.GOARCH),
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	if full {
		pkg.Files = files
		pkg.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
	}
	// Check returns the (possibly incomplete) package even on error;
	// collected TypeErrors carry the detail.
	tpkg, _ := conf.Check(path, l.Fset, files, pkg.Info)
	pkg.Types = tpkg
	if full && len(pkg.TypeErrors) > 0 {
		return pkg, fmt.Errorf("lint: type errors in %s: %v", path, pkg.TypeErrors[0])
	}
	return pkg, nil
}

// parseDir parses the package's buildable non-test files, in filename
// order, with comments (the directive escape hatches live there).
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		match, err := l.ctx.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// importerFor adapts the loader to go/types, resolving through the
// loader's own memoized source loads.
func importerFor(l *Loader) types.ImporterFrom { return loaderImporter{l} }

type loaderImporter struct{ l *Loader }

func (i loaderImporter) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, "", 0)
}

func (i loaderImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	pkg, err := i.l.Load(path)
	if err != nil {
		return nil, err
	}
	if pkg.Types == nil {
		return nil, fmt.Errorf("lint: no type information for %q", path)
	}
	return pkg.Types, nil
}

// keep go/importer imported: it documents the stdlib relationship and
// anchors the fallback if source loading ever needs replacing.
var _ = importer.Default

// ModuleDirs returns the module-relative directories (slash-separated,
// "." for the root) of every buildable package under the module root,
// sorted — the expansion of the "./..." pattern. testdata, vendored and
// hidden trees are skipped, as are nested modules (a directory with its
// own go.mod, like tools/).
func (l *Loader) ModuleDirs() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.modRoot {
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if hasBuildableGo(p) {
			rel, err := filepath.Rel(l.modRoot, p)
			if err != nil {
				return err
			}
			out = append(out, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

func hasBuildableGo(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, "_") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}

// Expand resolves command-line package patterns to import paths:
// "./..." and "dir/..." wildcards, "./dir" relative directories, and
// plain import paths.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	dirs, err := l.ModuleDirs()
	if err != nil {
		return nil, err
	}
	pathOf := func(rel string) string {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + rel
	}
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			for _, d := range dirs {
				add(pathOf(d))
			}
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			prefix = strings.TrimPrefix(prefix, "./")
			matched := false
			for _, d := range dirs {
				if d == prefix || strings.HasPrefix(d, prefix+"/") {
					add(pathOf(d))
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("lint: pattern %q matched no packages", pat)
			}
		case strings.HasPrefix(pat, "./"):
			add(pathOf(strings.TrimPrefix(pat, "./")))
		case pat == ".":
			add(l.modPath)
		default:
			add(pat)
		}
	}
	return out, nil
}
