package lintrules

import (
	"go/ast"
	"go/constant"
)

// envelopePkgs are the packages that speak the Registry v2 wire dialect.
// Their error responses must go through registry.WriteError so the error
// taxonomy (NAME_UNKNOWN, BLOB_UNKNOWN, UNAUTHORIZED, ...) is identical
// whether a client talks to a single registry, the mirror, or the
// cluster's router — the property the study's failure classification
// (401 private vs 404 no-latest) depends on.
var envelopePkgs = []string{
	"internal/registry",
	"internal/mirror",
	"internal/cluster",
	"internal/topology",
}

// ErrEnvelope forbids plain-text error responses — http.Error,
// http.NotFound, and direct WriteHeader calls with a constant 4xx/5xx
// status — in the Registry v2 handler packages. Success statuses
// (WriteHeader(http.StatusCreated), StatusPartialContent, ...) and
// non-constant statuses (registry.WriteError's own WriteHeader, paced
// middleware pass-through) are not flagged.
var ErrEnvelope = &Analyzer{
	Name: "errenvelope",
	Doc: "Registry v2 handler packages must emit errors via registry.WriteError (the v2 error envelope), " +
		"not http.Error/http.NotFound or a bare WriteHeader with an error status",
	Run: runErrEnvelope,
}

func runErrEnvelope(p *Pass) {
	if !pathInAny(p.Pkg.Path(), envelopePkgs...) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn := pkgFuncOf(p.Info, sel); fn != nil && fn.Pkg().Path() == "net/http" {
				switch fn.Name() {
				case "Error", "NotFound":
					p.Reportf(call.Pos(), "http.%s writes a text/plain error; emit the v2 envelope via registry.WriteError", fn.Name())
				}
				return true
			}
			if sel.Sel.Name == "WriteHeader" && len(call.Args) == 1 {
				if tv, ok := p.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
					if status, ok := constant.Int64Val(tv.Value); ok && status >= 400 {
						p.Reportf(call.Pos(), "WriteHeader(%d) bypasses the v2 error envelope; emit it via registry.WriteError", status)
					}
				}
			}
			return true
		})
	}
}
