// Package lintrules is the project's static-analysis suite: a set of
// analyzers that turn the repository's hand-maintained determinism,
// transport, and context conventions into mechanically enforced
// invariants. Every headline guarantee — figures bit-identical across
// worker counts, through the mirror, and through the N-node cluster —
// rests on rules ("use the injected clock", "only seeded RNG streams",
// "every HTTP client goes through internal/httpx", "propagate the
// context you were handed", "handlers speak the v2 error envelope",
// "response bodies go through blobstore.CopyBody") that past PRs fixed
// violations of by review alone. cmd/repolint runs the
// suite over ./... as part of `make lint`.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Reportf) but is built on the standard
// library only: the build environment vendors no third-party modules, so
// the suite type-checks packages itself with go/types over export data
// produced by `go list -export` (see load.go).
//
// # Suppression
//
// A diagnostic can be acknowledged in place with a directive comment:
//
//	//lint:allow <rule> <reason>
//
// The directive suppresses diagnostics of <rule> reported on its own
// line or on the line directly below it (so it works both as a trailing
// comment and as a standalone line above the flagged statement). The
// reason is mandatory; the driver counts suppressions and reports them,
// so allowlisted exceptions stay visible instead of silently rotting.
package lintrules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the rule name used in diagnostics and //lint:allow
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant and the
	// incident that motivated it.
	Doc string
	// Run inspects one type-checked package and reports violations
	// through the pass.
	Run func(*Pass)
}

// All is the full suite, in the order the driver runs it.
func All() []*Analyzer {
	return []*Analyzer{
		NoAdhocClock,
		NoGlobalRand,
		NoDefaultClient,
		CtxPropagate,
		ErrEnvelope,
		BodyCopy,
	}
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test sources, with comments.
	Files []*ast.File
	// Pkg is the type-checked package; Pkg.Path() is the import path the
	// scope rules match against.
	Pkg *types.Package
	// Info holds the package's type-checking results (Uses, Defs,
	// Selections, Types are populated).
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
	// Suppressed is set by ApplySuppressions when a //lint:allow
	// directive covers the diagnostic; Reason carries the directive's
	// justification.
	Suppressed bool
	Reason     string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// RunAnalyzers applies every analyzer to one loaded package and returns
// the diagnostics with suppressions resolved, sorted by position.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			diags:    &diags,
		}
		a.Run(pass)
	}
	ApplySuppressions(fset, files, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	rule   string
	reason string
}

// ApplySuppressions resolves //lint:allow directives against diags in
// place: a directive on line L of a file suppresses matching diagnostics
// on lines L and L+1 of that file.
func ApplySuppressions(fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	// file -> line -> directives on that line
	directives := make(map[string]map[int][]allowDirective)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := directives[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]allowDirective)
					directives[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
			}
		}
	}
	for i := range diags {
		byLine := directives[diags[i].Pos.Filename]
		if byLine == nil {
			continue
		}
		for _, line := range []int{diags[i].Pos.Line, diags[i].Pos.Line - 1} {
			for _, d := range byLine[line] {
				if d.rule == diags[i].Rule {
					diags[i].Suppressed = true
					diags[i].Reason = d.reason
				}
			}
		}
	}
}

// parseAllow parses a "//lint:allow <rule> <reason>" comment. A
// directive without a reason is not a valid suppression — the reason is
// the audit trail — so it is ignored (and the diagnostic stays live).
func parseAllow(text string) (allowDirective, bool) {
	body, ok := strings.CutPrefix(text, "//lint:allow ")
	if !ok {
		return allowDirective{}, false
	}
	rule, reason, ok := strings.Cut(strings.TrimSpace(body), " ")
	reason = strings.TrimSpace(reason)
	if !ok || rule == "" || reason == "" {
		return allowDirective{}, false
	}
	return allowDirective{rule: rule, reason: reason}, true
}

// ---- shared AST/type helpers ----

// pathMatches reports whether import path pkg lies in the tree rooted at
// the path fragment frag (e.g. frag "internal/core" matches
// "repro/internal/core" and "repro/internal/core/sub" in any module).
func pathMatches(pkg, frag string) bool {
	if pkg == frag || strings.HasPrefix(pkg, frag+"/") {
		return true
	}
	i := strings.Index(pkg, "/"+frag)
	if i < 0 {
		return false
	}
	rest := pkg[i+1+len(frag):]
	return rest == "" || strings.HasPrefix(rest, "/")
}

// pathInAny reports whether pkg matches any of the path fragments.
func pathInAny(pkg string, frags ...string) bool {
	for _, f := range frags {
		if pathMatches(pkg, f) {
			return true
		}
	}
	return false
}

// pkgFuncOf resolves a selector expression to the package-level function
// it names (e.g. time.Now), or nil if it is anything else — a method, a
// field, a variable, or a selector on a non-package operand. This is
// what distinguishes `rand.Intn` on package math/rand from `rand.Intn`
// on a local *rand.Rand variable that happens to be named rand.
func pkgFuncOf(info *types.Info, sel *ast.SelectorExpr) *types.Func {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, ok := info.Uses[id].(*types.PkgName); !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// pkgObjOf resolves a selector expression to the package-level object it
// names (function or variable), or nil.
func pkgObjOf(info *types.Info, sel *ast.SelectorExpr) types.Object {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, ok := info.Uses[id].(*types.PkgName); !ok {
		return nil
	}
	return info.Uses[sel.Sel]
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// hasContextParam reports whether the function type ft declares a
// parameter of type context.Context.
func hasContextParam(ft *ast.FuncType, info *types.Info) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if t, ok := info.Types[field.Type]; ok && isContextType(t.Type) {
			return true
		}
	}
	return false
}
