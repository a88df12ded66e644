// Package lint is LATTE-CC's simulator-aware static-analysis pass. It
// layers seven project-specific rules on top of go vet's generic
// checks, each encoding an invariant the cycle-level model depends on
// but the compiler cannot enforce:
//
//   - determinism: cycle-level packages must not read wall-clock time,
//     draw from the shared math/rand source, or iterate Go maps (whose
//     order is deliberately randomised) — any of these makes two runs of
//     the same seed diverge.
//   - panic-audit: panics are reserved for configuration/geometry
//     validation during construction; hot simulation paths and harness
//     I/O must return errors instead.
//   - config-mutation: Config structs are immutable after construction;
//     methods must not write their fields. Structs embedding sync.Mutex
//     must not be copied by value.
//   - stats-integrity: floating-point metric accumulation (+= on float
//     fields) belongs in internal/stats (or internal/energy), not
//     scattered through simulation code where summation order varies.
//   - lock-contract: fields annotated //lint:guards mu may only be
//     touched while mu is held; mutexes annotated //lint:mutex nocalls
//     may not be held across any call; and the module-wide lock-order
//     companion check (lock-order) rejects acquisition cycles and
//     self-deadlocks.
//   - goroutine-hygiene: every go statement in server/harness must have
//     a bounded lifecycle, and context.CancelFuncs must not be dropped.
//   - hotpath-alloc: //lint:hotpath functions must not contain
//     allocating constructs; the escape gate (lattelint -escape) pins
//     the compiler's -m=2 heap-escape output for them to a committed
//     baseline.
//
// Findings are suppressed line-by-line with a justification comment:
//
//	//lint:allow <rule> <reason>
//
// placed on the offending line or the line directly above it. The
// cmd/lattelint binary drives this package over the module tree.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Package is one type-checked package presented to the rules.
type Package struct {
	PkgPath string // import path, e.g. lattecc/internal/sim
	Fset    *token.FileSet
	Files   []*ast.File
	Info    *types.Info
	Types   *types.Package
}

// Rule is one analyzer. Check reports violations; the driver handles
// //lint:allow suppression and ordering.
type Rule struct {
	Name  string
	Doc   string
	Check func(p *Package) []Finding
}

// Rules returns every registered analyzer.
func Rules() []Rule {
	return []Rule{
		{
			Name:  "determinism",
			Doc:   "no wall-clock, global rand, or map iteration in cycle-level packages",
			Check: checkDeterminism,
		},
		{
			Name:  "panic-audit",
			Doc:   "panic() only in construction/validation paths",
			Check: checkPanicAudit,
		},
		{
			Name:  "config-mutation",
			Doc:   "Config fields are read-only after construction; never copy mutex-bearing structs",
			Check: checkConfigMutation,
		},
		{
			Name:  "stats-integrity",
			Doc:   "float metric accumulation belongs in internal/stats",
			Check: checkStatsIntegrity,
		},
		{
			Name:  "lock-contract",
			Doc:   "//lint:guards fields only touched under their mutex; //lint:mutex nocalls held across no calls",
			Check: checkLockContract,
		},
		{
			Name:  "goroutine-hygiene",
			Doc:   "go statements in server/harness/resultstore have bounded lifecycles; context cancels are not dropped",
			Check: checkGoroutineHygiene,
		},
		{
			Name:  "hotpath-alloc",
			Doc:   "//lint:hotpath functions contain no allocating constructs",
			Check: checkHotpathAlloc,
		},
	}
}

// cyclePackages are the bit-deterministic core of the simulator: any
// nondeterminism here changes simulation results, not just logs.
var cyclePackages = map[string]bool{
	"lattecc/internal/sim":      true,
	"lattecc/internal/cache":    true,
	"lattecc/internal/core":     true,
	"lattecc/internal/mem":      true,
	"lattecc/internal/compress": true,
	"lattecc/internal/workload": true,
}

// harnessPackages additionally hold experiment orchestration and file
// I/O; they may be slower but must still fail via errors, not panics.
var harnessPackages = map[string]bool{
	"lattecc/internal/harness": true,
}

// determinismOnlyPackages sit below the determinism boundary — their
// results must be a pure function of (config, seed) so divergences
// replay — but are exempt from the performance-oriented rules
// (panic-audit, stats-integrity): the reference models in the oracle
// are deliberately naive, never run inside a sweep, and panic loudly on
// internal drift by design.
var determinismOnlyPackages = map[string]bool{
	"lattecc/internal/oracle": true,
}

// Run executes every rule over every package, drops findings covered by
// //lint:allow comments, and returns the rest in file/line order.
func Run(pkgs []*Package) []Finding {
	var out []Finding
	allow := allowSet{}
	for _, p := range pkgs {
		mergeAllows(allow, collectAllows(p))
	}
	for _, p := range pkgs {
		for _, r := range Rules() {
			for _, f := range r.Check(p) {
				if allow.covers(f) {
					continue
				}
				out = append(out, f)
			}
		}
	}
	// The lock-order analysis is module-wide (the harness/server call
	// graph crosses package boundaries), so it runs over the whole
	// package set rather than per package.
	for _, f := range checkLockOrder(pkgs) {
		if allow.covers(f) {
			continue
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return out
}

// allowSet records, per file and line, which rules are suppressed.
type allowSet map[string]map[int]map[string]bool

// mergeAllows folds src into dst; filenames are globally unique, so
// per-package allow sets merge without collisions.
func mergeAllows(dst, src allowSet) {
	for file, lines := range src {
		dst[file] = lines
	}
}

// covers reports whether a //lint:allow comment for the finding's rule
// sits on the finding's line or the line directly above it.
func (a allowSet) covers(f Finding) bool {
	lines := a[f.Pos.Filename]
	if lines == nil {
		return false
	}
	return lines[f.Pos.Line][f.Rule] || lines[f.Pos.Line-1][f.Rule]
}

// collectAllows scans comments for "//lint:allow <rule> <reason>"
// directives. A missing reason still suppresses but is itself reported
// by the driver as a style finding — justifications are mandatory.
func collectAllows(p *Package) allowSet {
	set := allowSet{}
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					set[pos.Filename] = byLine
				}
				rules := byLine[pos.Line]
				if rules == nil {
					rules = map[string]bool{}
					byLine[pos.Line] = rules
				}
				rules[fields[0]] = true
			}
		}
	}
	return set
}

// MissingReasons reports //lint:allow directives that omit the
// mandatory justification text after the rule name.
func MissingReasons(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				if fields := strings.Fields(text); len(fields) < 2 {
					out = append(out, Finding{
						Pos:     p.Fset.Position(c.Pos()),
						Rule:    "allow-reason",
						Message: "//lint:allow requires a rule name and a justification",
					})
				}
			}
		}
	}
	return out
}

// isTestFile reports whether the file the node lives in is a _test.go
// file; test-only code may use maps and clocks freely.
func (p *Package) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// enclosingFuncs pairs each top-level function with its name so rules
// can apply per-function policies (constructors vs hot paths).
func enclosingFuncs(file *ast.File) []*ast.FuncDecl {
	var fns []*ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			fns = append(fns, fd)
		}
	}
	return fns
}
