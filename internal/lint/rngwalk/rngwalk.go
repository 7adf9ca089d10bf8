// Package rngwalk implements the qlint analyzer guarding the shared-
// PRNG-walk contract from PR 8: all three qx engines (dense reference,
// dense optimized, stabilizer tableau) produce bit-identical seeded
// counts because every random draw flows from the Simulator seed
// through ExecEnv.Rng, consumed in circuit order by the shared noise
// and sampling helpers. Three things break that contract silently:
//
//   - drawing from math/rand's global source (rand.Float64, rand.Intn,
//     …) anywhere in the package — forbidden outright;
//   - constructing a private PRNG (rand.New, rand.NewSource) outside
//     the blessed constructors, which would decouple an engine's walk
//     from the Simulator seed — allowed only in the functions listed in
//     AllowNewIn;
//   - an Engine method drawing from a *rand.Rand directly instead of
//     routing through the shared helpers, which desynchronises that
//     engine's walk from the others at the first behavioural
//     difference — forbidden inside any method of a type implementing
//     the package's Engine interface.
package rngwalk

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Configuration. Tests point these at fixture packages.
var (
	// Packages scopes the analyzer to the engine layer.
	Packages = []string{"repro/internal/qx"}
	// AllowNewIn names the functions (or methods) that may construct
	// PRNGs: the Simulator constructor, which seeds the canonical stream
	// (RunParallel's per-worker simulators come from it too). Closures
	// are attributed to their enclosing declaration.
	AllowNewIn = []string{"New"}
	// EngineInterface is the interface whose implementations' methods
	// must not draw from a PRNG directly.
	EngineInterface = "Engine"
)

// Analyzer enforces the shared-PRNG-walk contract.
var Analyzer = &lint.Analyzer{
	Name: "rngwalk",
	Doc: "forbids global math/rand draws, private PRNG construction outside " +
		"the Simulator constructors, and direct PRNG use inside Engine methods, " +
		"preserving bit-identical seeded counts across qx engines",
	Run: run,
}

func run(pass *lint.Pass) (any, error) {
	if pass.Pkg == nil || !lint.InScope(pass.Pkg.Path(), Packages) {
		return nil, nil
	}
	iface := engineInterface(pass.Pkg)
	// Walk whole declaration bodies, closures included: a FuncLit inherits
	// its enclosing function's privileges and its obligations (an engine
	// method cannot launder a direct draw through a closure).
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			inEngine := iface != nil && receiverImplements(pass, decl, iface)
			allowNew := contains(AllowNewIn, decl.Name.Name)
			checkBody(pass, decl.Body, inEngine, allowNew)
		}
	}
	return nil, nil
}

func checkBody(pass *lint.Pass, body *ast.BlockStmt, inEngine, allowNew bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn := mathRandFunc(pass, sel); fn != "" {
			switch fn {
			case "New", "NewSource":
				if !allowNew {
					pass.Reportf(call.Pos(), "rand.%s outside the blessed constructors %v: "+
						"a private PRNG decouples this code's random walk from the Simulator seed; "+
						"derive all randomness from ExecEnv.Rng", fn, AllowNewIn)
				}
			default:
				pass.Reportf(call.Pos(), "global math/rand draw rand.%s: the package-level source "+
					"is shared, unseeded state; draw from ExecEnv.Rng so seeded counts stay "+
					"bit-identical across engines", fn)
			}
			return true
		}
		if inEngine && isRandRandMethod(pass, sel) {
			pass.Reportf(call.Pos(), "engine method draws %s directly from a *rand.Rand: "+
				"route the draw through the shared env helpers (applyEnv*/flipReadoutBit/samplers) "+
				"so every engine consumes the PRNG walk at identical points", sel.Sel.Name)
		}
		return true
	})
}

// engineInterface resolves the package's Engine interface, if declared.
func engineInterface(pkg *types.Package) *types.Interface {
	obj := pkg.Scope().Lookup(EngineInterface)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// receiverImplements reports whether the method's receiver type (value
// or pointer) implements the interface.
func receiverImplements(pass *lint.Pass, decl *ast.FuncDecl, iface *types.Interface) bool {
	if decl.Recv == nil || len(decl.Recv.List) != 1 {
		return false
	}
	t := decl.Recv.List[0].Type
	tv, ok := pass.TypesInfo.Types[t]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Implements(tv.Type, iface) || types.Implements(types.NewPointer(tv.Type), iface)
}

// mathRandFunc returns the function name when sel resolves to a
// package-level function of math/rand (v1 or v2), "" otherwise.
func mathRandFunc(pass *lint.Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	path := pn.Imported().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return ""
	}
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
		return fn.Name()
	}
	return ""
}

// isRandRandMethod reports whether sel is a method selection on a
// math/rand Rand value.
func isRandRandMethod(pass *lint.Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return strings.HasPrefix(named.Obj().Pkg().Path(), "math/rand") && named.Obj().Name() == "Rand"
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
