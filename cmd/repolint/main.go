// Command repolint runs the project's static-analysis suite
// (internal/lintrules) over the given package patterns and exits
// nonzero on any unsuppressed diagnostic. It is the mechanical form of
// the repository's determinism, transport, and context conventions:
// `make lint` runs it over ./... so a bare time.Now in a deterministic
// package, a global math/rand draw, a stray http.DefaultClient, a
// dropped context, a plain-text handler error, or a bare io.Copy into a
// response fails CI instead of waiting for review to notice.
//
// Usage:
//
//	repolint [-dir d] [-list] [-v] [packages...]
//
// Patterns default to ./... . Suppressions (//lint:allow <rule>
// <reason>) are counted and reported so allowlisted exceptions stay
// visible.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lintrules"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory to resolve package patterns in")
	list := fs.Bool("list", false, "list the analyzers and exit")
	verbose := fs.Bool("v", false, "report suppressed diagnostics individually")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lintrules.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	pkgs, err := lintrules.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var live, suppressed int
	for _, pkg := range pkgs {
		for _, d := range lintrules.RunAnalyzers(analyzers, pkg.Fset, pkg.Files, pkg.Pkg, pkg.Info) {
			if d.Suppressed {
				suppressed++
				if *verbose {
					fmt.Fprintf(stdout, "%s [suppressed: %s]\n", d, d.Reason)
				}
				continue
			}
			live++
			fmt.Fprintln(stdout, d)
		}
	}
	switch {
	case live > 0:
		fmt.Fprintf(stdout, "repolint: %d violation(s), %d suppressed, %d package(s)\n", live, suppressed, len(pkgs))
		return 1
	case suppressed > 0:
		fmt.Fprintf(stdout, "repolint: ok, %d suppressed, %d package(s)\n", suppressed, len(pkgs))
	default:
		fmt.Fprintf(stdout, "repolint: ok, %d package(s)\n", len(pkgs))
	}
	return 0
}
