package repro_test

import (
	"os/exec"
	"strings"
	"testing"
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
