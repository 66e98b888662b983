package lintrules

import (
	"go/ast"
)

// seededConstructors are the math/rand package-level functions that
// build explicitly seeded generators — the only sanctioned way to get
// randomness anywhere in the repository (a seeded *rand.Rand at seed +
// offset). Everything else at package level draws from the global
// source, whose sequence depends on who else consumed it, so figures
// would stop being a pure function of the run seed.
var seededConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 constructors.
	"NewPCG":     true,
	"NewChaCha8": true,
}

// NoGlobalRand forbids the top-level math/rand (and math/rand/v2)
// functions everywhere: rand.Intn, rand.Float64, rand.Perm, ... all read
// the process-global source. Methods on a seeded *rand.Rand are fine —
// the rule resolves the selector through go/types, so a variable named
// rand does not trip it.
var NoGlobalRand = &Analyzer{
	Name: "noglobalrand",
	Doc: "forbid top-level math/rand functions (global RNG state); derive a seeded *rand.Rand " +
		"at seed + offset instead",
	Run: runNoGlobalRand,
}

func runNoGlobalRand(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := pkgFuncOf(p.Info, sel)
			if fn == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if seededConstructors[fn.Name()] {
				return true
			}
			p.Reportf(sel.Pos(), "global RNG: rand.%s draws from the process-global source; use a seeded *rand.Rand at seed + offset",
				fn.Name())
			return true
		})
	}
}
