package lintrules

import (
	"go/ast"
)

// deterministicPkgs are the path fragments of packages whose behaviour
// must be a pure function of configuration and seed: the study and
// everything the figures flow through. Inside them, wall-clock reads and
// sleeps must go through engine.SystemNow and engine.SleepContext, or
// through a clock seam of the package's own (trafficsim's virtual clock)
// built on them, so no wall-clock dependence hides from review or from a
// fake clock in tests.
var deterministicPkgs = []string{
	"internal/core",
	"internal/engine",
	"internal/pipeline",
	"internal/analyzer",
	"internal/analytics",
	"internal/synth",
	"internal/cluster",
	"internal/topology",
	"internal/dedupstore",
	"internal/trafficsim",
}

// adhocClockFuncs are the package time functions that read or wait on
// the process wall clock. time.Since is the sugared form of
// time.Now().Sub; the timer constructors are the sleep primitives the
// engine's SleepContext wraps.
var adhocClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"AfterFunc": true,
}

// NoAdhocClock forbids ad-hoc wall-clock access in deterministic
// packages. Motivated by the bandwidth pacer and trafficsim's virtual
// clock: a bare time.Now in a paced or measured path silently escapes the
// clock seam, so virtual-time tests stop covering it.
var NoAdhocClock = &Analyzer{
	Name: "noadhocclock",
	Doc: "forbid bare time.Now/time.Sleep/time.Since (and timer constructors) in deterministic packages; " +
		"use engine.SystemNow / engine.SleepContext instead",
	Run: runNoAdhocClock,
}

func runNoAdhocClock(p *Pass) {
	if !pathInAny(p.Pkg.Path(), deterministicPkgs...) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := pkgFuncOf(p.Info, sel)
			if fn == nil || fn.Pkg().Path() != "time" || !adhocClockFuncs[fn.Name()] {
				return true
			}
			p.Reportf(sel.Pos(), "ad-hoc clock: time.%s in deterministic package %s; use engine.SystemNow / engine.SleepContext",
				fn.Name(), p.Pkg.Path())
			return true
		})
	}
}
