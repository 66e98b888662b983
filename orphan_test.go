package repro_test

import (
	"os/exec"
	"sort"
	"strings"
	"testing"

	"repro/internal/lintrules"
)

// TestNoOrphanPackages makes ROADMAP item 6's rule mechanical: every
// internal package sits on the path of a binary, the benchmark, or this
// facade, or it goes. Examples do not count as roots — a package only an
// example imports is an orphan.
func TestNoOrphanPackages(t *testing.T) {
	goList := func(args ...string) []string {
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
		}
		return strings.Fields(string(out))
	}
	reached := make(map[string]bool)
	for _, p := range goList("-deps", "./cmd/...", "./bench", ".") {
		reached[p] = true
	}
	for _, p := range goList("./internal/...") {
		if !reached[p] {
			t.Errorf("%s is reached by no binary, bench/ or the repro facade: delete it or put it on a gated path", p)
		}
	}
}

// deadExportAllowlist names package-level exports under internal/ that
// no program file references but that stay, each with its reason.
var deadExportAllowlist = map[string]string{
	"repro/internal/trafficsim.NewVirtualClock": "test seam: the engine's scheduling tests drive a virtual clock instead of sleeping",
}

// TestNoDeadExports is TestNoOrphanPackages one level down: every
// package-level exported func, type, var or const declared under
// internal/ is referenced from a non-test file outside examples/ —
// its own package included — or it goes. Methods are out of scope:
// interface satisfaction makes "unreferenced" noisy for them.
func TestNoDeadExports(t *testing.T) {
	pkgs, err := lintrules.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	for _, p := range pkgs {
		if strings.Contains(p.Path, "/examples/") {
			continue
		}
		for _, obj := range p.Info.Uses {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				used[obj.Pkg().Path()+"."+obj.Name()] = true
			}
		}
	}
	var dead []string
	for _, p := range pkgs {
		if !strings.Contains(p.Path, "/internal/") {
			continue
		}
		for _, name := range p.Pkg.Scope().Names() {
			key := p.Path + "." + name
			if _, ok := deadExportAllowlist[key]; ok || !p.Pkg.Scope().Lookup(name).Exported() || used[key] {
				continue
			}
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is referenced by no program file outside examples/: delete it, move it into the tests, or allowlist it with a reason", key)
	}
}
