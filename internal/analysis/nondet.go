package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NonDeterminism enforces the deterministic-package contract: no wall-clock
// reads, no global math/rand draws, and no map iteration whose order escapes
// into order-sensitive state. It runs only over DeterministicPackages.
var NonDeterminism = &Analyzer{
	Name: "rc4nondet",
	Doc: "forbid time.Now/Since, global math/rand, and order-escaping map " +
		"iteration in the deterministic packages",
	Run: runNonDeterminism,
}

// wallClockFuncs are the time package functions that read the wall clock.
// Referencing one in a deterministic package — as a call or as a function
// value (an injected-clock default such as `clock := time.Now`) — needs a
// `//rc4lint:allow timing <why>` annotation.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// globalRandConstructors are the math/rand (and /v2) package-level functions
// that do NOT draw from the global source; everything else package-level
// does, and a deterministic package must thread a seeded *rand.Rand instead.
var globalRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNonDeterminism(pass *Pass) error {
	if !IsDeterministic(pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		checkWallClockAndRand(pass, f)
		checkMapOrder(pass, f)
	}
	return nil
}

func checkWallClockAndRand(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pass.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if wallClockFuncs[fn.Name()] && !pass.Allowed("timing", id.Pos()) {
				pass.Reportf(id.Pos(),
					"time.%s in deterministic package %s: wall-clock values must not reach evidence, ranks, or persisted state (annotate a pure timing site with //rc4lint:allow timing <why>)",
					fn.Name(), BasePath(pass.PkgPath))
			}
		case "math/rand", "math/rand/v2":
			// Methods on *rand.Rand have a receiver; only package-level
			// functions draw from the global, implicitly seeded source.
			if fn.Type().(*types.Signature).Recv() != nil || globalRandConstructors[fn.Name()] {
				return true
			}
			if !pass.Allowed("rand", id.Pos()) {
				pass.Reportf(id.Pos(),
					"global %s.%s in deterministic package %s: draw from a seeded *rand.Rand threaded from the lane/shard seed instead",
					fn.Pkg().Name(), fn.Name(), BasePath(pass.PkgPath))
			}
		}
		return true
	})
}

// orderSinkMethods are method names through which a value derived from a map
// iteration would escape in iteration order: encoders, writers, printers.
var orderSinkMethods = map[string]bool{
	"Encode": true, "Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Print": true, "Printf": true, "Println": true,
}

// fmtSinkFuncs are the fmt package functions that emit output in call order.
var fmtSinkFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// sortFuncs recognize the collect-then-sort idiom: appending map keys to a
// slice is deterministic if the very same slice is sorted in the statements
// following the loop.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// checkMapOrder walks every `range` over a map and flags statements through
// which the iteration order can reach order-sensitive state: float/string
// compound assignment to variables declared outside the loop, appends to
// outer slices (unless the slice is sorted right after the loop), and
// encoder/writer/printer calls. Taint starts at the key/value variables and
// propagates through simple assignments inside the body.
func checkMapOrder(pass *Pass, f *ast.File) {
	// Parent links for the sorted-afterwards exemption.
	parentBlock := make(map[*ast.RangeStmt]*ast.BlockStmt)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if r, ok := n.(*ast.RangeStmt); ok {
			for i := len(stack) - 1; i >= 0; i-- {
				if b, ok := stack[i].(*ast.BlockStmt); ok {
					parentBlock[r] = b
					break
				}
			}
		}
		stack = append(stack, n)
		return true
	})

	ast.Inspect(f, func(n ast.Node) bool {
		r, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.Info.TypeOf(r.X); t == nil || !isMap(t) {
			return true
		}
		checkOneMapRange(pass, r, parentBlock[r])
		return true
	})
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkOneMapRange(pass *Pass, r *ast.RangeStmt, encl *ast.BlockStmt) {
	taint := make(map[types.Object]bool)
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := objUse(pass.Info, id); obj != nil {
				taint[obj] = true
			}
		}
	}
	if len(taint) == 0 {
		// Neither key nor value is bound (`for range m`): only the
		// iteration count is observable, which is order-free.
		return
	}
	mentionsTaint := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := objUse(pass.Info, id); obj != nil && taint[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	outer := func(obj types.Object) bool {
		return obj != nil && !declaredWithin(obj, r.Pos(), r.End())
	}

	ast.Inspect(r.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Taint propagation through straight assignments in the body.
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && mentionsTaint(rhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							if obj := objUse(pass.Info, id); obj != nil {
								taint[obj] = true
							}
						}
					}
				}
				// `out = append(out, tainted)` into an outer slice.
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isBuiltinAppend(pass.Info, call) {
						continue
					}
					argsTainted := false
					for _, a := range call.Args[1:] {
						if mentionsTaint(a) {
							argsTainted = true
						}
					}
					if !argsTainted || i >= len(n.Lhs) {
						continue
					}
					dst := baseIdent(n.Lhs[i])
					if dst == nil {
						continue
					}
					obj := objUse(pass.Info, dst)
					if !outer(obj) {
						continue
					}
					if sortedAfter(pass, r, encl, obj) {
						continue
					}
					if !pass.Allowed("maporder", n.Pos()) {
						pass.Reportf(n.Pos(),
							"map iteration order escapes via append to %s: sort %s after the loop, iterate sorted keys, or annotate with //rc4lint:allow maporder <why>",
							dst.Name, dst.Name)
					}
				}
				return true
			}
			// Compound assignment: only float/complex addition and string
			// concatenation are order-sensitive; integer accumulation
			// commutes bitwise.
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN ||
				n.Tok == token.MUL_ASSIGN || n.Tok == token.QUO_ASSIGN {
				lhs := n.Lhs[0]
				t := pass.Info.TypeOf(lhs)
				if t == nil || !(isFloat(t) || isString(t)) {
					return true
				}
				if !mentionsTaint(n.Rhs[0]) && !taintedIndex(pass, lhs, mentionsTaint) {
					return true
				}
				dst := baseIdent(lhs)
				if dst == nil {
					return true
				}
				if obj := objUse(pass.Info, dst); outer(obj) {
					if !pass.Allowed("maporder", n.Pos()) {
						pass.Reportf(n.Pos(),
							"map iteration order reaches accumulator %s (%s addition does not commute bitwise): iterate sorted keys or annotate with //rc4lint:allow maporder <why>",
							dst.Name, t.Underlying().String())
					}
				}
			}
		case *ast.CallExpr:
			// Encoder / writer / printer sinks.
			tainted := false
			for _, a := range n.Args {
				if mentionsTaint(a) {
					tainted = true
				}
			}
			if !tainted {
				return true
			}
			sinkName := ""
			if fn := calleeFunc(pass.Info, n); fn != nil {
				if fn.Type().(*types.Signature).Recv() != nil && orderSinkMethods[fn.Name()] {
					sinkName = fn.Name()
				}
				if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtSinkFuncs[fn.Name()] {
					sinkName = "fmt." + fn.Name()
				}
			}
			if sinkName != "" && !pass.Allowed("maporder", n.Pos()) {
				pass.Reportf(n.Pos(),
					"map iteration order escapes into %s: emit in sorted-key order or annotate with //rc4lint:allow maporder <why>", sinkName)
			}
		}
		return true
	})
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// taintedIndex reports whether lhs indexes through a tainted expression
// (`acc[k] += v` is order-sensitive when k is the map key only if the values
// collide — conservatively, a tainted index with float element is flagged
// through the caller's mentionsTaint on the RHS; here we catch the index).
func taintedIndex(pass *Pass, lhs ast.Expr, mentionsTaint func(ast.Expr) bool) bool {
	for {
		switch v := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			if mentionsTaint(v.Index) {
				return true
			}
			lhs = v.X
		case *ast.SelectorExpr:
			lhs = v.X
		default:
			return false
		}
	}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether a sort over obj appears in the statements that
// follow the range loop in its enclosing block — the collect-then-sort idiom.
func sortedAfter(pass *Pass, r *ast.RangeStmt, encl *ast.BlockStmt, obj types.Object) bool {
	if encl == nil {
		return false
	}
	after := false
	for _, stmt := range encl.List {
		if stmt == ast.Stmt(r) {
			after = true
			continue
		}
		if !after {
			continue
		}
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			continue
		}
		names := sortFuncs[fn.Pkg().Path()]
		if names == nil || !names[fn.Name()] {
			continue
		}
		if id := baseIdent(call.Args[0]); id != nil && objUse(pass.Info, id) == obj {
			return true
		}
	}
	return false
}
