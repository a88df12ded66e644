package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// goroutine-hygiene: the daemon, the harness, and (since PR 7) the
// epoch engine own every goroutine the simulator spawns, and the
// shutdown paths (drain/deadline/SIGTERM in the daemon, pool close at
// the end of Sim.Run) only work if each of them has a bounded
// lifecycle. The rule enforces two properties in internal/server,
// internal/harness, and internal/sim:
//
//  1. Every `go` statement's target must be resolvable in-package (a
//     function literal or a same-package function/method) and its body
//     must contain at least one lifecycle signal: a ctx.Done()/ctx.Err()
//     check, a WaitGroup Done/Wait, a close(), or a channel operation.
//     A goroutine with none of those can neither be told to stop nor
//     observed to finish — exactly the leak -race cannot see.
//
//  2. lostcancel: a context.CancelFunc returned by WithCancel /
//     WithTimeout / WithDeadline must not be dropped (assigned to _) and
//     must be referenced somewhere in the enclosing function.
//
// The evidence is name-based (method names Done/Wait/Err, channel
// sends/receives) so the rule also works on parse-only fixtures; with
// type info the context package is verified for lostcancel.

// goroutinePackages are the packages whose goroutines must be bounded.
var goroutinePackages = map[string]bool{
	"lattecc/internal/server":  true,
	"lattecc/internal/harness": true,
	// The epoch engine's worker pool (PR 7). Concurrency below the
	// determinism boundary is otherwise banned outright by the
	// determinism rule; here it is legal but must still be bounded.
	"lattecc/internal/sim": true,
	// The persistent result store (PR 9) is hit concurrently by every
	// pool worker on a suite miss; its locking is also policed by the
	// lock-contract rule (//lint:mutex nocalls + //lint:guards).
	"lattecc/internal/resultstore": true,
}

func checkGoroutineHygiene(p *Package) []Finding {
	if !goroutinePackages[p.PkgPath] {
		return nil
	}
	var out []Finding
	decls := packageFuncBodies(p)
	for _, file := range p.Files {
		if p.isTestFile(file.Pos()) {
			continue
		}
		for _, fd := range enclosingFuncs(file) {
			if fd.Body == nil {
				continue
			}
			out = append(out, checkGoStmts(p, decls, fd)...)
			out = append(out, checkLostCancel(p, fd)...)
		}
	}
	return out
}

// packageFuncBodies indexes every function/method body by name so `go
// s.worker()` can be resolved without type information.
func packageFuncBodies(p *Package) map[string]*ast.BlockStmt {
	bodies := map[string]*ast.BlockStmt{}
	for _, file := range p.Files {
		for _, fd := range enclosingFuncs(file) {
			if fd.Body != nil {
				bodies[fd.Name.Name] = fd.Body
			}
		}
	}
	return bodies
}

func checkGoStmts(p *Package, decls map[string]*ast.BlockStmt, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		body := goTargetBody(p, decls, gs.Call)
		switch {
		case body == nil:
			out = append(out, Finding{
				Pos:  p.Fset.Position(gs.Pos()),
				Rule: "goroutine-hygiene",
				Message: fmt.Sprintf("goroutine target %s is not resolvable in this package; its lifecycle cannot be verified as bounded",
					exprString(gs.Call.Fun)),
			})
		case !boundedLifecycle(body):
			out = append(out, Finding{
				Pos:  p.Fset.Position(gs.Pos()),
				Rule: "goroutine-hygiene",
				Message: fmt.Sprintf("goroutine %s has no bounded lifecycle: no ctx.Done/Err check, WaitGroup Done/Wait, close, or channel operation in its body",
					exprString(gs.Call.Fun)),
			})
		}
		return true
	})
	return out
}

// goTargetBody resolves the spawned callable to a body we can inspect:
// a function literal, or a same-package function or method.
func goTargetBody(p *Package, decls map[string]*ast.BlockStmt, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		return decls[fun.Name]
	case *ast.SelectorExpr:
		// s.worker(): with type info, require the method to live in this
		// package; parse-only falls back to the name index.
		if obj, ok := p.Info.Uses[fun.Sel]; ok {
			fn, isFn := obj.(*types.Func)
			if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != p.PkgPath {
				return nil
			}
		}
		return decls[fun.Sel.Name]
	}
	return nil
}

// lifecycleMethodNames are method calls accepted as evidence that the
// goroutine participates in a shutdown/completion protocol.
var lifecycleMethodNames = map[string]bool{
	"Done": true, // ctx.Done(), wg.Done()
	"Wait": true, // wg.Wait()
	"Err":  true, // ctx.Err()
}

// boundedLifecycle reports whether a goroutine body shows any lifecycle
// signal. Nested function literals count: the signal is reachable from
// the spawn site.
func boundedLifecycle(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.SelectorExpr:
				if lifecycleMethodNames[fun.Sel.Name] {
					found = true
				}
			case *ast.Ident:
				if fun.Name == "close" {
					found = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.SendStmt:
			found = true
		case *ast.RangeStmt:
			// for v := range ch receives until the channel closes.
			found = true
		}
		return !found
	})
	return found
}

// cancelFactoryNames are the context constructors that return a
// CancelFunc which must not be lost.
var cancelFactoryNames = map[string]bool{
	"WithCancel":   true,
	"WithTimeout":  true,
	"WithDeadline": true,
}

func checkLostCancel(p *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !cancelFactoryNames[sel.Sel.Name] {
			return true
		}
		if obj, ok := p.Info.Uses[sel.Sel]; ok {
			fn, isFn := obj.(*types.Func)
			if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
		} else if base, ok := sel.X.(*ast.Ident); !ok || base.Name != "context" {
			return true
		}
		cancel, ok := as.Lhs[1].(*ast.Ident)
		if !ok {
			return true
		}
		if cancel.Name == "_" {
			out = append(out, Finding{
				Pos:     p.Fset.Position(cancel.Pos()),
				Rule:    "goroutine-hygiene",
				Message: fmt.Sprintf("the context.CancelFunc from %s is discarded; the context and its timer leak until the parent is done", sel.Sel.Name),
			})
			return true
		}
		if !cancelUsed(p, fd, cancel) {
			out = append(out, Finding{
				Pos:     p.Fset.Position(cancel.Pos()),
				Rule:    "goroutine-hygiene",
				Message: fmt.Sprintf("%s is never called; defer %s() after %s", cancel.Name, cancel.Name, sel.Sel.Name),
			})
		}
		return true
	})
	return out
}

// cancelUsed reports whether the cancel variable is referenced anywhere
// else in the enclosing function (a defer cancel() or an error-path
// call both count). With type info the check is object-identity-exact;
// parse-only falls back to name matching.
func cancelUsed(p *Package, fd *ast.FuncDecl, def *ast.Ident) bool {
	obj := types.Object(p.Info.Defs[def])
	if obj == nil {
		obj = p.Info.Uses[def] // plain = assignment to an existing var
	}
	used := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if used {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id == def {
			return true
		}
		if obj != nil {
			if p.Info.Uses[id] == obj {
				used = true
			}
		} else if id.Name == def.Name {
			used = true
		}
		return !used
	})
	return used
}
