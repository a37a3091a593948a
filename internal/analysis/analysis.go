// Package analysis implements the repository's determinism lint suite: four
// static passes that turn the invariants the equivalence tests check
// dynamically — bitwise-identical evidence, ranks, and success records across
// backends, worker counts, fleet topologies, and kill/resume cycles — into
// properties the build refuses to compile away from.
//
// The passes are:
//
//   - rc4nondet: in the deterministic packages (see DeterministicPackages),
//     forbid wall-clock reads (time.Now/Since/Until) outside annotated timing
//     sites, global math/rand draws (only seeded *rand.Rand values threaded
//     from a lane or shard seed are allowed), and map iterations whose order
//     escapes into an accumulator, slice append, or encoder.
//
//   - rc4goroutine: module-wide goroutine hygiene — every `go` statement must
//     be linked to its launcher (context, WaitGroup, or a captured channel),
//     and fan-out closures may not capture loop variables implicitly.
//
//   - rc4gob: every concrete type handed to snapshot.WriteGob /
//     snapshot.WriteFileGob / snapshot.EncodeGob must be registered in
//     GobManifest with its current schema fingerprint, so gob schema drift of
//     persisted envelopes is a lint error, not a silent corruption.
//
//   - rc4floatfold: floating-point `+=` / `-=` accumulation into shared state
//     inside `go func` bodies is forbidden unless the merge site is
//     annotated order-pinned — the bug class the fleet's in-order merge gate
//     exists to prevent.
//
// The passes run over the whole module in CI through scripts/rc4lint, a
// `go vet -vettool`-compatible driver. A justified exception is written as
//
//	//rc4lint:allow <check> <justification>
//
// on the offending line or the line directly above it, where <check> is one
// of the names in AllowChecks and the justification is mandatory. The
// framework here is deliberately stdlib-only (go/ast + go/types); it mirrors
// the golang.org/x/tools/go/analysis API shape so the passes could migrate to
// it, but depends on nothing outside the standard library.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static pass: a name (used in diagnostics and annotation
// checks), a doc string, and a Run function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, anchored to a position.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Pass carries one package's worth of parsed, type-checked input to an
// analyzer, plus the Report sink for findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	// PkgPath is the import path as the build system reports it; test
	// variants ("pkg_test", "pkg [pkg.test]") are normalized by BasePath.
	PkgPath string
	Info    *types.Info
	Report  func(Diagnostic)

	allowOnce bool
	allow     map[string]map[int][]annotation // filename -> line -> annotations
}

// annotation is one parsed //rc4lint:allow comment.
type annotation struct {
	check   string
	reason  string
	pos     token.Pos
	covered [2]int // inclusive line range the annotation suppresses
}

// AllowChecks is the set of check names an //rc4lint:allow annotation may
// name, mapping each to the analyzer that owns it.
var AllowChecks = map[string]string{
	"timing":      "rc4nondet",
	"rand":        "rc4nondet",
	"maporder":    "rc4nondet",
	"goroutine":   "rc4goroutine",
	"loopcapture": "rc4goroutine",
	"gob":         "rc4gob",
	"floatfold":   "rc4floatfold",
}

// DeterministicPackages lists the packages whose outputs must be a pure
// function of their inputs: evidence, candidate ranks, and success records
// produced here are compared bitwise across backends, worker counts, fleet
// topologies, and kill/resume cycles. rc4nondet applies only to these.
var DeterministicPackages = map[string]bool{
	"rc4break/internal/rc4":          true,
	"rc4break/internal/dataset":      true,
	"rc4break/internal/recovery":     true,
	"rc4break/internal/tkip":         true,
	"rc4break/internal/cookieattack": true,
	"rc4break/internal/online":       true,
	"rc4break/internal/fleet":        true,
	"rc4break/internal/snapshot":     true,
	"rc4break/internal/trace":        true,
	"rc4break/internal/service":      true,
	"rc4break/internal/job":          true,
}

// Analyzers is the full suite in the order the driver runs them.
var Analyzers = []*Analyzer{
	NonDeterminism,
	GoroutineHygiene,
	SnapshotGob,
	FloatFold,
}

// BasePath normalizes a build-system package path to the plain import path:
// "pkg [pkg.test]" (internal test variant) and "pkg_test" (external test
// package) both map to "pkg".
func BasePath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	return path
}

// IsDeterministic reports whether path (or its test variant) belongs to the
// deterministic package set.
func IsDeterministic(path string) bool {
	return DeterministicPackages[BasePath(path)]
}

const allowPrefix = "rc4lint:allow"

// buildAllow scans every comment in the pass's files once, recording which
// lines each //rc4lint:allow annotation covers: the annotation's own line
// range plus the line directly below it (so both trailing comments and
// own-line comments above the finding work).
func (p *Pass) buildAllow() {
	if p.allowOnce {
		return
	}
	p.allowOnce = true
	p.allow = make(map[string]map[int][]annotation)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				check, reason, _ := strings.Cut(rest, " ")
				start := p.Fset.Position(c.Pos())
				end := p.Fset.Position(c.End())
				a := annotation{
					check:   check,
					reason:  strings.TrimSpace(reason),
					pos:     c.Pos(),
					covered: [2]int{start.Line, end.Line + 1},
				}
				byLine := p.allow[start.Filename]
				if byLine == nil {
					byLine = make(map[int][]annotation)
					p.allow[start.Filename] = byLine
				}
				for l := a.covered[0]; l <= a.covered[1]; l++ {
					byLine[l] = append(byLine[l], a)
				}
			}
		}
	}
}

// Allowed reports whether a finding of the named check at pos is suppressed
// by a well-formed //rc4lint:allow annotation. Malformed annotations (unknown
// check, missing justification) never suppress; CheckAnnotations flags them.
func (p *Pass) Allowed(check string, pos token.Pos) bool {
	p.buildAllow()
	position := p.Fset.Position(pos)
	for _, a := range p.allow[position.Filename][position.Line] {
		if a.check == check && a.reason != "" {
			return true
		}
	}
	return false
}

// CheckAnnotations reports malformed //rc4lint:allow annotations: unknown
// check names and missing justifications. GoroutineHygiene (the one
// module-wide pass that runs everywhere) calls it so a typo'd annotation is
// itself a finding instead of a silent no-op.
func (p *Pass) CheckAnnotations() {
	p.buildAllow()
	seen := make(map[token.Pos]bool)
	for _, byLine := range p.allow {
		for _, anns := range byLine {
			for _, a := range anns {
				if seen[a.pos] {
					continue
				}
				seen[a.pos] = true
				if _, ok := AllowChecks[a.check]; !ok {
					p.Report(Diagnostic{
						Pos:      a.pos,
						Category: p.Analyzer.Name,
						Message: fmt.Sprintf(
							"rc4lint:allow names unknown check %q (known: timing, rand, maporder, goroutine, loopcapture, gob, floatfold)", a.check),
					})
					continue
				}
				if a.reason == "" {
					p.Report(Diagnostic{
						Pos:      a.pos,
						Category: p.Analyzer.Name,
						Message:  fmt.Sprintf("rc4lint:allow %s needs a justification: //rc4lint:allow %s <why this site is exempt>", a.check, a.check),
					})
				}
			}
		}
	}
}

// Reportf is the printf-flavored Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or nil
// (builtins, conversions, calls of function-typed variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcFrom reports whether fn is the package-level function pkgPath.name.
func funcFrom(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// objUse resolves an identifier to the object it uses or defines.
func objUse(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// baseIdent walks to the root identifier of an lvalue chain:
// x, x.f, x[i], (*x).f all root at x.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside [lo, hi].
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() != token.NoPos && obj.Pos() >= lo && obj.Pos() <= hi
}

// isFloat reports whether t's core type is a floating-point or complex kind —
// the kinds whose addition does not commute bitwise.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
