package lintrules

import (
	"go/ast"
	"go/types"
)

// bodyCopyPkgs are the packages whose handlers stream blob and manifest
// bodies into HTTP responses.
var bodyCopyPkgs = []string{
	"internal/registry",
	"internal/mirror",
}

// BodyCopy forbids io.Copy, io.CopyN and io.CopyBuffer with an
// http.ResponseWriter as the destination in the packages that serve blob
// bodies. The response writer is an io.ReaderFrom whose ReadFrom ends in
// net.genericReadFrom, which for any source but an *os.File allocates a
// fresh 32 KiB buffer per response, and io.CopyN's LimitedReader hides a
// source's own WriteTo to get there — PR 19 measured 202 KiB per cold pull
// and 3.3 KiB per cache hit from exactly these calls. blobstore.CopyBody
// lets the source push itself and otherwise copies through a pooled buffer
// with ReadFrom hidden.
var BodyCopy = &Analyzer{
	Name: "bodycopy",
	Doc: "registry and mirror handlers must stream response bodies through blobstore.CopyBody, " +
		"not io.Copy/io.CopyN/io.CopyBuffer into the http.ResponseWriter (a copy buffer allocated per response)",
	Run: runBodyCopy,
}

func runBodyCopy(p *Pass) {
	if !pathInAny(p.Pkg.Path(), bodyCopyPkgs...) {
		return
	}
	rw := responseWriterIface(p.Pkg)
	if rw == nil {
		return // the package does not import net/http
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := pkgFuncOf(p.Info, sel)
			if fn == nil || fn.Pkg().Path() != "io" {
				return true
			}
			switch fn.Name() {
			case "Copy", "CopyN", "CopyBuffer":
			default:
				return true
			}
			if tv, ok := p.Info.Types[call.Args[0]]; ok && types.Implements(tv.Type, rw) {
				p.Reportf(call.Pos(), "io.%s into an http.ResponseWriter allocates a copy buffer per response; use blobstore.CopyBody", fn.Name())
			}
			return true
		})
	}
}

// responseWriterIface finds net/http.ResponseWriter among pkg's imports.
func responseWriterIface(pkg *types.Package) *types.Interface {
	for _, imp := range pkg.Imports() {
		if imp.Path() != "net/http" {
			continue
		}
		if obj := imp.Scope().Lookup("ResponseWriter"); obj != nil {
			iface, _ := obj.Type().Underlying().(*types.Interface)
			return iface
		}
	}
	return nil
}
