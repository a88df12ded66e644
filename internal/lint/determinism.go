package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
)

// randConstructors are package-level math/rand functions that merely
// build deterministic generators from an explicit seed; everything else
// at package level draws from the shared, unseeded global source.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// boundaryImports are serving-layer packages that must never leak below
// the determinism boundary. The daemon (internal/server) may read wall
// clocks and talk HTTP; the cycle-level model may not even *see* that
// layer — an import edge from a cycle package into the serving stack is
// the first step toward request state influencing simulation results.
var boundaryImports = map[string]string{
	"lattecc/internal/server":      "the serving daemon sits above the determinism boundary",
	"lattecc/internal/harness":     "orchestration must depend on the model, never the reverse",
	"lattecc/internal/resultstore": "the persistent result store is an I/O layer above the determinism boundary; disk state must never feed back into the model",
	"net/http":                     "cycle-level code has no business speaking HTTP",
}

// parallelCyclePackages are cycle-level packages that may use sync
// primitives and goroutines: the epoch engine in internal/sim runs
// phase A of each cycle across a worker pool, which is legal because
// workers touch only SM-private state and merge at a deterministic
// barrier (DESIGN.md §12). Concurrency there is policed by
// goroutine-hygiene and the lock contracts instead of banned outright.
// Wall-clock time stays banned even here: a worker pool must never let
// scheduling influence results, and a clock read is exactly such an
// influence.
var parallelCyclePackages = map[string]bool{
	"lattecc/internal/sim": true,
}

// concurrencyImports bring scheduler-dependent execution into whatever
// package imports them. Below the determinism boundary that is only
// tolerable where a barrier protocol restores bit-identical results —
// i.e. in parallelCyclePackages.
var concurrencyImports = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
}

// checkDeterminism flags wall-clock reads, global math/rand draws, map
// iteration, serving-layer imports, and — outside the epoch engine —
// goroutines and sync imports inside cycle-level packages. Any of
// these makes a run's result depend on something other than
// (config, seed, trace). The same constructs are deliberately legal in
// the layers above the boundary (internal/server, internal/harness,
// cmd/*): a daemon needs clocks and sockets; the model must not.
func checkDeterminism(p *Package) []Finding {
	if !cyclePackages[p.PkgPath] && !determinismOnlyPackages[p.PkgPath] {
		return nil
	}
	var out []Finding
	report := func(n ast.Node, format string, args ...interface{}) {
		out = append(out, Finding{
			Pos:     p.Fset.Position(n.Pos()),
			Rule:    "determinism",
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, file := range p.Files {
		if p.isTestFile(file.Pos()) {
			continue
		}
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, banned := boundaryImports[path]; banned {
				report(imp, "import of %s crosses the determinism boundary: %s", path, why)
			}
			if concurrencyImports[path] && cyclePackages[p.PkgPath] && !parallelCyclePackages[p.PkgPath] {
				report(imp, "import of %s brings scheduler-dependent concurrency into a cycle-level package; only the epoch engine (internal/sim) may coordinate goroutines", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pkgName, ok := importedPackage(p, n.X)
				if !ok {
					return true
				}
				switch pkgName.Imported().Path() {
				case "time":
					if n.Sel.Name == "Now" || n.Sel.Name == "Since" || n.Sel.Name == "Until" {
						report(n, "time.%s leaks wall-clock time into cycle-level state", n.Sel.Name)
					}
				case "math/rand", "math/rand/v2":
					// Type references (*rand.Rand in a signature) are not
					// draws; only calls through the package's global source
					// are.
					if _, isType := p.Info.Uses[n.Sel].(*types.TypeName); isType {
						return true
					}
					if !randConstructors[n.Sel.Name] {
						report(n, "global rand.%s draws from the shared source; use an explicitly seeded *rand.Rand", n.Sel.Name)
					}
				}
			case *ast.GoStmt:
				if cyclePackages[p.PkgPath] && !parallelCyclePackages[p.PkgPath] {
					report(n, "go statement spawns a goroutine inside a cycle-level package; only the epoch engine (internal/sim) may run the model concurrently")
				}
			case *ast.RangeStmt:
				t := p.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					report(n, "range over map %s iterates in randomised order; sort the keys first", types.TypeString(t, types.RelativeTo(p.Types)))
				}
			}
			return true
		})
	}
	return out
}

// importedPackage resolves an expression to the package it names, if it
// is a bare package qualifier (e.g. the "time" in time.Now).
func importedPackage(p *Package, x ast.Expr) (*types.PkgName, bool) {
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return pn, ok
}
