package repro_test

import (
	"os/exec"
	"strings"
	"sync"
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

// deadCodeAllowlist names declarations under internal/ that the dead-code
// rules below would delete but that stay, each with its reason. Keys are
// "pkg.Name" for package-level names and "pkg.Type.Name" for methods and
// fields.
var deadCodeAllowlist = map[string]string{
	"repro/internal/trafficsim.NewVirtualClock":  "test seam: the engine's scheduling tests drive a virtual clock instead of sleeping",
	"repro/internal/trafficsim.Env.Clock":        "test seam: where the scenario tests hand in NewVirtualClock's clock",
	"repro/internal/downloader.Downloader.sleep": "test seam: the retry tests record the backoff schedule instead of sleeping it",
	"repro/internal/downloader.Downloader.rnd":   "test seam: the retry tests pin the jitter draw",
	"repro/internal/cache.Cache.Contains":        "test seam: the mirror tests wait for asynchronous admission without touching LRU order or the counters, which Stat would",
	"repro/internal/topology.Backend.Drain":      "test seam: the drain-under-load tests take one node down mid-run",
}

// The dead-code rules carry TestNoOrphanPackages down to declarations.
// A program file is a non-test file outside examples/, its own package
// included; every declaration under internal/ must be used by one:
//
//   - TestNoDeadExports: every package-level func, type, var or const,
//     exported or not, is referenced. A type only its own methods'
//     receivers mention is not.
//   - TestNoDeadMethods: every method, on a named type or in an
//     interface, is called or referenced, or implements a method of an
//     interface the program can convert its type to — one from outside
//     the module, one the module declares and a program file names, an
//     interface literal, or a protocol the errors package asserts to.
//   - TestNoUnsetFields: every struct field is set — a composite
//     literal, an assignment, an increment, its address taken, a pointer
//     method called on it, or a JSON decode into the struct. A field no
//     program sets is an option nobody chooses: its zero value is the
//     behaviour.
//   - TestNoUnreadFields: every field that is set is also read — a
//     selection other than an assignment's target, or reflection by a
//     value handed to an empty interface (fmt, encoding/json). A field
//     no program reads is a result nobody consumes.
//
// What fails is deleted, moved into the tests that use it, or allowlisted
// above with a reason. The rules themselves are pinned by
// TestDeadCodeRulesOnFixture.

func TestNoDeadExports(t *testing.T) {
	reportDead(t, loadProgram(t).deadNames(), "is referenced by no program file outside examples/")
}

func TestNoDeadMethods(t *testing.T) {
	reportDead(t, loadProgram(t).deadMethods(), "is called by no program file outside examples/ and implements no interface method")
}

func TestNoUnsetFields(t *testing.T) {
	unset, _ := loadProgram(t).deadFields()
	reportDead(t, unset, "is set by no program file outside examples/")
}

func TestNoUnreadFields(t *testing.T) {
	_, unread := loadProgram(t).deadFields()
	reportDead(t, unread, "is read by no program file outside examples/")
}

func reportDead(t *testing.T, dead []string, why string) {
	t.Helper()
	for _, key := range dead {
		if _, ok := deadCodeAllowlist[key]; !ok {
			t.Errorf("%s %s: delete it, move it into the tests, or allowlist it with a reason", key, why)
		}
	}
}

var (
	programOnce sync.Once
	programVal  *program
	programErr  error
)

// loadProgram loads and indexes this module once for all the rules.
func loadProgram(t *testing.T) *program {
	t.Helper()
	programOnce.Do(func() {
		var pkgs []*lintrules.Package
		if pkgs, programErr = lintrules.Load(".", "./..."); programErr == nil {
			programVal = newProgram("repro", pkgs)
		}
	})
	if programErr != nil {
		t.Fatal(programErr)
	}
	return programVal
}

// TestDeadCodeRulesOnFixture runs the rules over testdata/deadcode, a
// module whose every declaration says in its name whether a rule must
// catch it, so a rule that goes blind — or starts flagging what a program
// uses — fails here rather than passing silently over this module.
func TestDeadCodeRulesOnFixture(t *testing.T) {
	pkgs, err := lintrules.Load("testdata/deadcode", "./...")
	if err != nil {
		t.Fatal(err)
	}
	prog := newProgram("fixture", pkgs)
	unset, unread := prog.deadFields()
	const a = "fixture/internal/a."
	for _, c := range []struct {
		rule      string
		got, want []string
	}{
		{"names", prog.deadNames(), []string{a + "DeadFunc", a + "DeadOnlyReceivers", a + "deadConst", a + "testOnlyHelper"}},
		{"methods", prog.deadMethods(), []string{a + "DeadOnlyReceivers.M", a + "Iface.DeadMethod", a + "Live.ExampleMethod"}},
		{"unset fields", unset, []string{a + "Options.DeadOption", a + "Options.ExampleOption"}},
		{"unread fields", unread, []string{a + "Result.WriteOnly"}},
	} {
		if strings.Join(c.got, " ") != strings.Join(c.want, " ") {
			t.Errorf("%s rule found\n\t%v\nwant\n\t%v", c.rule, c.got, c.want)
		}
	}
}
