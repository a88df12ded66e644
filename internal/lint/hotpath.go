package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// hotpath-alloc: functions annotated
//
//	//lint:hotpath
//
// (codec Measure/encode cores, cache access paths, the warp scheduler)
// run once per simulated L1 access or SM cycle — hundreds of millions
// of times per sweep — and must not allocate. Two layers enforce that:
//
//   - this static rule flags the constructs that always or usually
//     allocate: make, new, slice/map composite literals, address-of
//     composite literals, and calls into fmt/strings/strconv/errors/sort
//     (formatting machinery allocates even on discarded paths);
//   - the escape gate (escape.go + `lattelint -escape`) parses the
//     compiler's own -gcflags=-m=2 output and fails if any annotated
//     function gains a heap escape, catching what syntax cannot (escape
//     of locals, closure captures, interface boxing).
//
// append is deliberately NOT flagged: appending into a caller-owned or
// amortized scratch buffer is the repo's idiom for zero-steady-state
// allocation, and the escape gate still catches the backing array if it
// escapes.

// allocPackageNames are stdlib packages whose exported calls allocate.
var allocPackageNames = map[string]bool{
	"fmt": true, "strings": true, "strconv": true,
	"errors": true, "sort": true,
}

// hotpathAnnotated reports whether a function declaration carries the
// //lint:hotpath annotation.
func hotpathAnnotated(fd *ast.FuncDecl) bool {
	_, ok := directiveArgs(fd.Doc, "hotpath")
	return ok
}

func checkHotpathAlloc(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		if p.isTestFile(file.Pos()) {
			continue
		}
		for _, fd := range enclosingFuncs(file) {
			if fd.Body == nil || !hotpathAnnotated(fd) {
				continue
			}
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if why := allocCall(p, n); why != "" {
						out = append(out, Finding{
							Pos:     p.Fset.Position(n.Pos()),
							Rule:    "hotpath-alloc",
							Message: fmt.Sprintf("%s in //lint:hotpath function %s allocates on every call", why, name),
						})
					}
				case *ast.CompositeLit:
					if why := allocComposite(p, n); why != "" {
						out = append(out, Finding{
							Pos:     p.Fset.Position(n.Pos()),
							Rule:    "hotpath-alloc",
							Message: fmt.Sprintf("%s in //lint:hotpath function %s allocates on every call", why, name),
						})
						return false
					}
				case *ast.UnaryExpr:
					if n.Op.String() == "&" {
						if cl, ok := n.X.(*ast.CompositeLit); ok {
							out = append(out, Finding{
								Pos:     p.Fset.Position(n.Pos()),
								Rule:    "hotpath-alloc",
								Message: fmt.Sprintf("&%s{...} in //lint:hotpath function %s heap-allocates unless proven otherwise; hoist to a scratch field", compositeName(cl), name),
							})
							return false
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// allocCall classifies a call as allocating: make/new builtins and
// calls into the formatting/sorting stdlib families.
func allocCall(p *Package, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name != "make" && fun.Name != "new" {
			return ""
		}
		if obj, ok := p.Info.Uses[fun]; ok {
			if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
				return ""
			}
		}
		return fun.Name + "()"
	case *ast.SelectorExpr:
		base, ok := fun.X.(*ast.Ident)
		if !ok {
			return ""
		}
		if obj, ok := p.Info.Uses[base]; ok {
			pn, isPkg := obj.(*types.PkgName)
			if !isPkg || !allocPackageNames[pn.Imported().Path()] {
				return ""
			}
		} else if !allocPackageNames[base.Name] {
			return ""
		}
		return base.Name + "." + fun.Sel.Name + "()"
	}
	return ""
}

// allocComposite flags slice and map literals; struct and array values
// live on the stack and pass.
func allocComposite(p *Package, cl *ast.CompositeLit) string {
	if tv, ok := p.Info.Types[cl]; ok && tv.Type != nil {
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			return "slice literal"
		case *types.Map:
			return "map literal"
		}
		return ""
	}
	// Parse-only fallback on the literal's syntactic type.
	switch t := cl.Type.(type) {
	case *ast.ArrayType:
		if t.Len == nil {
			return "slice literal"
		}
	case *ast.MapType:
		return "map literal"
	}
	return ""
}

func compositeName(cl *ast.CompositeLit) string {
	if cl.Type == nil {
		return "composite"
	}
	s := exprString(cl.Type)
	if s == "…" {
		return "composite"
	}
	return s
}

// HotpathFunc is one annotated function, keyed for the escape gate by
// its file and body line range (compiler diagnostics are positional).
type HotpathFunc struct {
	PkgPath   string
	Name      string // receiver-qualified, e.g. (*Cache).Fill
	File      string // slash path relative to the module root
	StartLine int
	EndLine   int
}

// HotpathFuncs collects every //lint:hotpath function in the loaded
// packages, sorted by package/file/line, with file paths relative to
// root for matching against `go build` output.
func HotpathFuncs(pkgs []*Package, root string) []HotpathFunc {
	var out []HotpathFunc
	for _, p := range pkgs {
		for _, file := range p.Files {
			if p.isTestFile(file.Pos()) {
				continue
			}
			for _, fd := range enclosingFuncs(file) {
				if fd.Body == nil || !hotpathAnnotated(fd) {
					continue
				}
				start := p.Fset.Position(fd.Pos())
				end := p.Fset.Position(fd.End())
				out = append(out, HotpathFunc{
					PkgPath:   p.PkgPath,
					Name:      qualifiedFuncName(fd),
					File:      relSlash(root, start.Filename),
					StartLine: start.Line,
					EndLine:   end.Line,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		if a.File != b.File {
			return a.File < b.File
		}
		return a.StartLine < b.StartLine
	})
	return out
}

// qualifiedFuncName renders "(*Cache).Fill" / "Measure" style names.
func qualifiedFuncName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		return "(*" + exprString(star.X) + ")." + fd.Name.Name
	}
	return exprString(t) + "." + fd.Name.Name
}

// relSlash renders filename relative to root with forward slashes; if
// filename is not under root it is returned cleaned as-is.
func relSlash(root, filename string) string {
	f := strings.ReplaceAll(filename, "\\", "/")
	r := strings.ReplaceAll(root, "\\", "/")
	if r != "" && strings.HasPrefix(f, r) {
		f = strings.TrimPrefix(strings.TrimPrefix(f, r), "/")
	}
	return f
}
