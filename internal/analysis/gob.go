package analysis

import (
	"go/ast"
	"go/types"
)

// SnapshotGob pins the gob schema of every value that flows into a snapshot
// envelope. Each call to snapshot.WriteGob, snapshot.WriteFileGob,
// snapshot.EncodeGob, or snapshot.WriteColumns (its gob header) must pass a payload whose concrete named type is
// registered in GobManifest with its current schema fingerprint (SchemaOf).
// An unregistered type, an interface-typed payload the pass cannot resolve,
// or a fingerprint that no longer matches the manifest is a finding — silent
// gob schema drift of persisted artifacts becomes a lint error instead of a
// corrupted resume three sessions later.
//
// Same-package forwarders are followed one level: a function that passes its
// own interface-typed parameter straight into a sink (fleet's writeMsg) is
// itself treated as a sink, and its call sites are checked instead.
var SnapshotGob = &Analyzer{
	Name: "rc4gob",
	Doc: "require every snapshot.WriteGob/EncodeGob payload type to be " +
		"registered (with its schema fingerprint) in the gob manifest",
	Run: runSnapshotGob,
}

const snapshotPkg = "rc4break/internal/snapshot"

// gobSinkParam maps the snapshot package's encoding entry points to the
// index of their payload parameter.
var gobSinkParam = map[string]int{
	"WriteGob":     2,
	"WriteFileGob": 2,
	"EncodeGob":    0,
	"WriteColumns": 2,
}

func runSnapshotGob(pass *Pass) error {
	if BasePath(pass.PkgPath) == snapshotPkg {
		// The sink bodies themselves forward `v any` into encoding/gob by
		// design; their callers are where concrete types appear.
		return nil
	}

	// payloadIndex resolves fn to a sink: a snapshot entry point, or a
	// same-package function forwarding an interface-typed parameter into one.
	forwarders := findForwarders(pass)
	payloadIndex := func(fn *types.Func) (int, bool) {
		if fn == nil {
			return 0, false
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == snapshotPkg {
			idx, ok := gobSinkParam[fn.Name()]
			return idx, ok
		}
		idx, ok := forwarders[fn]
		return idx, ok
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			idx, ok := payloadIndex(fn)
			if !ok || idx >= len(call.Args) {
				return true
			}
			checkGobPayload(pass, call.Args[idx], forwarders)
			return true
		})
	}
	return nil
}

// findForwarders scans the package for functions whose interface-typed (or
// type-parameter-typed) parameter is passed as the payload of a gob sink —
// those functions become sinks themselves, with the payload checked at their
// call sites instead. The scan iterates to a fixed point so a helper that
// forwards through another local forwarder (a test harness wrapping fleet's
// writeMsg, say) is resolved transitively.
func findForwarders(pass *Pass) map[*types.Func]int {
	forwarders := make(map[*types.Func]int)
	sinkIndex := func(fn *types.Func) (int, bool) {
		if fn == nil {
			return 0, false
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == snapshotPkg {
			idx, ok := gobSinkParam[fn.Name()]
			return idx, ok
		}
		idx, ok := forwarders[fn]
		return idx, ok
	}
	for changed := true; changed; {
		changed = false
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fnObj, _ := pass.Info.Defs[fd.Name].(*types.Func)
				if fnObj == nil {
					continue
				}
				if _, done := forwarders[fnObj]; done {
					continue
				}
				sig := fnObj.Type().(*types.Signature)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sinkIdx, ok := sinkIndex(calleeFunc(pass.Info, call))
					if !ok || sinkIdx >= len(call.Args) {
						return true
					}
					argID, ok := ast.Unparen(call.Args[sinkIdx]).(*ast.Ident)
					if !ok {
						return true
					}
					argObj := pass.Info.Uses[argID]
					for i := 0; i < sig.Params().Len(); i++ {
						p := sig.Params().At(i)
						if p == argObj {
							// *types.TypeParam's Underlying is its
							// constraint interface, so generic payload
							// parameters forward the same way `any` ones do.
							if _, isIface := p.Type().Underlying().(*types.Interface); isIface {
								forwarders[fnObj] = i
								changed = true
							}
						}
					}
					return true
				})
			}
		}
	}
	return forwarders
}

func checkGobPayload(pass *Pass, arg ast.Expr, forwarders map[*types.Func]int) {
	t := pass.Info.TypeOf(arg)
	if t == nil {
		return
	}
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		// Forwarding a forwarder's own payload parameter onward is the one
		// legal interface-typed payload: the concrete type is checked at the
		// outer call site.
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if v, ok := pass.Info.Uses[id].(*types.Var); ok {
				for fn, idx := range forwarders {
					sig := fn.Type().(*types.Signature)
					if idx < sig.Params().Len() && sig.Params().At(idx) == v {
						return
					}
				}
			}
		}
		if !pass.Allowed("gob", arg.Pos()) {
			pass.Reportf(arg.Pos(),
				"snapshot gob payload has interface type %s: pass a concrete named type so its schema can be pinned in the manifest (or annotate with //rc4lint:allow gob <why>)", t)
		}
		return
	}

	named := namedOf(t)
	if named == nil {
		if !pass.Allowed("gob", arg.Pos()) {
			pass.Reportf(arg.Pos(),
				"snapshot gob payload type %s is unnamed: declare a named type for persisted payloads so the manifest can pin its schema", t)
		}
		return
	}
	key := namedName(named)
	want, ok := GobManifest[key]
	if !ok {
		if !pass.Allowed("gob", arg.Pos()) {
			pass.Reportf(arg.Pos(),
				"snapshot gob payload type %s is not registered: add it to internal/analysis/gobmanifest.go as %q: %q",
				key, key, SchemaOf(named))
		}
		return
	}
	if got := SchemaOf(named); got != want {
		if !pass.Allowed("gob", arg.Pos()) {
			pass.Reportf(arg.Pos(),
				"gob schema drift for %s: manifest pins %q but the type now encodes as %q — if the change is intentional and persisted artifacts stay decodable, update gobmanifest.go",
				key, want, got)
		}
	}
}

// namedOf unwraps pointers and aliases to the named type of t, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch v := t.(type) {
		case *types.Named:
			return v
		case *types.Alias:
			t = types.Unalias(v)
		case *types.Pointer:
			t = v.Elem()
		default:
			return nil
		}
	}
}
