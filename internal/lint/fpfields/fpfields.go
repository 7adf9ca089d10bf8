// Package fpfields implements the qlint analyzer guarding cache-key
// completeness: every field of core.Stack must either be read by one of
// the stack's fingerprint methods (directly or through another receiver
// method they call) or explicitly opt out with an `fp:"-"` struct tag.
//
// The full-artefact compile cache keys on Stack.CompileFingerprint, and
// the prefix cache on a subset of what it reads (compiler.PrefixKey over
// the platform's gate set and the pass spec's prefix); a
// compilation-relevant field added without a fingerprint mention makes
// both cache levels silently serve stale artefacts across configuration
// changes — the worst failure mode the service has. fpfields turns that
// omission into a lint error at the field declaration, and also reports
// the inverse drift (a field tagged fp:"-" that a fingerprint method
// actually reads), so the tags stay honest documentation.
package fpfields

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"

	"repro/internal/lint"
)

// Configuration. Tests point these at fixture packages; the defaults
// bind the analyzer to the real cache-key contract.
var (
	// Packages scopes the analyzer.
	Packages = []string{"repro/internal/core"}
	// StructName is the cached-configuration struct.
	StructName = "Stack"
	// Methods are the fingerprint methods whose reads define coverage.
	Methods = []string{"Fingerprint", "CompileFingerprint"}
	// TagKey is the struct-tag key carrying the "-" opt-out.
	TagKey = "fp"
)

// Analyzer reports Stack fields missing from every fingerprint method.
var Analyzer = &lint.Analyzer{
	Name: "fpfields",
	Doc: "verifies every core.Stack field is read by a fingerprint method " +
		"or tagged fp:\"-\", so new fields cannot silently alias compile-cache keys",
	Run: run,
}

func run(pass *lint.Pass) (any, error) {
	if pass.Pkg == nil || !lint.InScope(pass.Pkg.Path(), Packages) {
		return nil, nil
	}
	st := findStruct(pass, StructName)
	if st == nil {
		return nil, nil
	}
	methods := receiverMethods(pass, StructName)
	var roots []*ast.FuncDecl
	for _, m := range Methods {
		if fd, ok := methods[m]; ok {
			roots = append(roots, fd)
		}
	}
	if len(roots) == 0 {
		pass.Reportf(st.Pos(), "struct %s has none of the fingerprint methods %v: "+
			"the cache-key completeness check cannot run", StructName, Methods)
		return nil, nil
	}
	used := fieldsRead(pass, roots, methods)
	for _, field := range st.Fields.List {
		tag := fieldTag(field, TagKey)
		for _, name := range fieldNames(field) {
			switch {
			case tag == "-" && used[name]:
				pass.Reportf(field.Pos(), "field %s.%s is tagged %s:\"-\" but a fingerprint method reads it: "+
					"drop the tag or stop fingerprinting the field", StructName, name, TagKey)
			case tag != "-" && !used[name]:
				pass.Reportf(field.Pos(), "field %s.%s appears in no fingerprint method (%s): "+
					"fold it into a fingerprint if it affects compilation output, or tag it %s:\"-\" if it cannot",
					StructName, name, strings.Join(Methods, "/"), TagKey)
			}
		}
	}
	return nil, nil
}

// findStruct locates the declaration of the named struct type.
func findStruct(pass *lint.Pass, name string) *ast.StructType {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}

// receiverMethods indexes the struct's methods (value or pointer
// receiver) by name.
func receiverMethods(pass *lint.Pass, typeName string) map[string]*ast.FuncDecl {
	out := map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			t := fd.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if id, ok := t.(*ast.Ident); ok && id.Name == typeName {
				out[fd.Name.Name] = fd
			}
		}
	}
	return out
}

// fieldsRead computes the set of receiver fields read by the root
// methods, following calls to other receiver methods to a fixed point —
// Fingerprint covers everything CompileFingerprint covers because it
// calls it.
func fieldsRead(pass *lint.Pass, roots []*ast.FuncDecl, methods map[string]*ast.FuncDecl) map[string]bool {
	used := map[string]bool{}
	visited := map[string]bool{}
	var visit func(fd *ast.FuncDecl)
	visit = func(fd *ast.FuncDecl) {
		if visited[fd.Name.Name] || fd.Body == nil {
			return
		}
		visited[fd.Name.Name] = true
		recv := receiverObject(pass, fd)
		if recv == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || pass.TypesInfo.ObjectOf(id) != recv {
				return true
			}
			name := sel.Sel.Name
			if callee, ok := methods[name]; ok {
				visit(callee)
				return true
			}
			used[name] = true
			return true
		})
	}
	for _, fd := range roots {
		visit(fd)
	}
	return used
}

// receiverObject resolves the method's receiver variable.
func receiverObject(pass *lint.Pass, fd *ast.FuncDecl) types.Object {
	names := fd.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[names[0]]
}

// fieldNames lists the declared names of a struct field (embedded
// fields use their type name).
func fieldNames(field *ast.Field) []string {
	if len(field.Names) > 0 {
		out := make([]string, len(field.Names))
		for i, n := range field.Names {
			out[i] = n.Name
		}
		return out
	}
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if sel, ok := t.(*ast.SelectorExpr); ok {
		return []string{sel.Sel.Name}
	}
	if id, ok := t.(*ast.Ident); ok {
		return []string{id.Name}
	}
	return nil
}

// fieldTag extracts one struct-tag key's value.
func fieldTag(field *ast.Field, key string) string {
	if field.Tag == nil {
		return ""
	}
	tag := strings.Trim(field.Tag.Value, "`")
	return reflect.StructTag(tag).Get(key)
}
