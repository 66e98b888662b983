package lintrules

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The fixture harness parses each testdata file as its own single-file
// package, type-checks it under a synthetic import path (so the
// path-scoped rules see the package they expect), runs exactly one
// analyzer, and diffs the diagnostics against `// want "substring"`
// comments. Suppressed diagnostics are asserted separately: they must
// carry Suppressed=true and never count against the want comments.

var (
	lookupOnce sync.Once
	lookupFn   func(path string) (io.ReadCloser, error)
	lookupErr  error
)

// fixtureLookup runs `go list -export` over the repo once per test
// binary; each fixture then builds its own importer over the shared
// export-data map.
func fixtureLookup(t *testing.T) func(path string) (io.ReadCloser, error) {
	t.Helper()
	lookupOnce.Do(func() {
		lookupFn, lookupErr = exportLookup("../..")
	})
	if lookupErr != nil {
		t.Fatalf("exportLookup: %v", lookupErr)
	}
	return lookupFn
}

// exportLookup runs `go list -export` once over dir's module and
// returns an export-data lookup function. The result is independent of
// any FileSet, so callers can build it once and construct importers
// (importer.ForCompiler) per FileSet.
func exportLookup(dir string) (func(path string) (io.ReadCloser, error), error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json=ImportPath,Export,Incomplete", "./...")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lintrules: go list: %v: %s", err, stderr.Bytes())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			return nil, err
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}, nil
}

// runFixture type-checks one fixture file under pkgPath and returns the
// diagnostics of the single analyzer.
func runFixture(t *testing.T, a *Analyzer, file, pkgPath string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("testdata", a.Name, file), nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing %s: %v", file, err)
	}
	imp := importer.ForCompiler(fset, "gc", fixtureLookup(t))
	pkg, info, err := Check(pkgPath, fset, []*ast.File{f}, imp)
	if err != nil {
		t.Fatalf("type-checking %s as %s: %v", file, pkgPath, err)
	}
	return RunAnalyzers([]*Analyzer{a}, fset, []*ast.File{f}, pkg, info)
}

// wantComments extracts line -> expected message substrings from the
// fixture's `// want "..."` comments.
func wantComments(t *testing.T, a *Analyzer, file string) map[int][]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("testdata", a.Name, file), nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing %s: %v", file, err)
	}
	wants := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "want ") {
				continue
			}
			sub := strings.TrimPrefix(text, "want ")
			sub = strings.Trim(sub, `"`)
			line := fset.Position(c.Pos()).Line
			wants[line] = append(wants[line], sub)
		}
	}
	return wants
}

// checkFixture runs the analyzer over file at pkgPath and requires the
// live diagnostics to match the want comments exactly, plus exactly
// wantSuppressed suppressed diagnostics.
func checkFixture(t *testing.T, a *Analyzer, file, pkgPath string, wantSuppressed int) {
	t.Helper()
	diags := runFixture(t, a, file, pkgPath)
	wants := wantComments(t, a, file)

	matched := make(map[int]int) // line -> want index consumed count
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
			if d.Reason == "" {
				t.Errorf("%s:%d: suppressed diagnostic has no reason", file, d.Pos.Line)
			}
			continue
		}
		subs := wants[d.Pos.Line]
		if matched[d.Pos.Line] >= len(subs) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", file, d.Pos.Line, d.Message)
			continue
		}
		sub := subs[matched[d.Pos.Line]]
		matched[d.Pos.Line]++
		if !strings.Contains(d.Message, sub) {
			t.Errorf("%s:%d: diagnostic %q does not contain want %q", file, d.Pos.Line, d.Message, sub)
		}
	}
	for line, subs := range wants {
		if matched[line] < len(subs) {
			t.Errorf("%s:%d: want %q, got no diagnostic", file, line, subs[matched[line]])
		}
	}
	if suppressed != wantSuppressed {
		t.Errorf("%s: got %d suppressed diagnostics, want %d", file, suppressed, wantSuppressed)
	}
}

func TestNoAdhocClockFixtures(t *testing.T) {
	checkFixture(t, NoAdhocClock, "bad.go", "repro/internal/core", 0)
	checkFixture(t, NoAdhocClock, "good.go", "repro/internal/core", 0)
	checkFixture(t, NoAdhocClock, "suppressed.go", "repro/internal/engine", 2)
}

func TestNoAdhocClockOutOfScope(t *testing.T) {
	// The same violations are legal outside the deterministic packages.
	diags := runFixture(t, NoAdhocClock, "bad.go", "repro/cmd/fixturecmd")
	if len(diags) != 0 {
		t.Errorf("cmd scope: got %d diagnostics, want 0: %+v", len(diags), diags)
	}
}

func TestNoGlobalRandFixtures(t *testing.T) {
	// noglobalrand applies everywhere, deterministic package or not.
	checkFixture(t, NoGlobalRand, "bad.go", "repro/internal/stats", 0)
	checkFixture(t, NoGlobalRand, "bad.go", "repro/cmd/fixturecmd", 0)
	checkFixture(t, NoGlobalRand, "good.go", "repro/internal/stats", 0)
	checkFixture(t, NoGlobalRand, "suppressed.go", "repro/internal/stats", 1)
}

func TestNoDefaultClientFixtures(t *testing.T) {
	checkFixture(t, NoDefaultClient, "bad.go", "repro/internal/downloader", 0)
	checkFixture(t, NoDefaultClient, "good.go", "repro/internal/downloader", 0)
	checkFixture(t, NoDefaultClient, "suppressed.go", "repro/internal/downloader", 1)
}

func TestNoDefaultClientExemptInHttpx(t *testing.T) {
	// internal/httpx owns the tuned transport and may touch the defaults.
	diags := runFixture(t, NoDefaultClient, "bad.go", "repro/internal/httpx")
	if len(diags) != 0 {
		t.Errorf("httpx scope: got %d diagnostics, want 0: %+v", len(diags), diags)
	}
}

func TestCtxPropagateFixtures(t *testing.T) {
	checkFixture(t, CtxPropagate, "bad.go", "repro/internal/registry", 0)
	checkFixture(t, CtxPropagate, "good.go", "repro/internal/registry", 0)
	checkFixture(t, CtxPropagate, "suppressed.go", "repro/internal/registry", 1)
}

func TestCtxPropagateExemptInCmd(t *testing.T) {
	// cmd/ binaries own their root context; minting one is their job.
	diags := runFixture(t, CtxPropagate, "bad.go", "repro/cmd/fixturecmd")
	if len(diags) != 0 {
		t.Errorf("cmd scope: got %d diagnostics, want 0: %+v", len(diags), diags)
	}
}

func TestErrEnvelopeFixtures(t *testing.T) {
	checkFixture(t, ErrEnvelope, "bad.go", "repro/internal/registry", 0)
	checkFixture(t, ErrEnvelope, "bad.go", "repro/internal/mirror", 0)
	checkFixture(t, ErrEnvelope, "good.go", "repro/internal/registry", 0)
	checkFixture(t, ErrEnvelope, "suppressed.go", "repro/internal/registry", 1)
}

func TestErrEnvelopeOutOfScope(t *testing.T) {
	// Non-registry packages (e.g. the ops endpoints in internal/serve)
	// are free to use plain http error helpers.
	diags := runFixture(t, ErrEnvelope, "bad.go", "repro/internal/serve")
	if len(diags) != 0 {
		t.Errorf("serve scope: got %d diagnostics, want 0: %+v", len(diags), diags)
	}
}

func TestBodyCopyFixtures(t *testing.T) {
	checkFixture(t, BodyCopy, "bad.go", "repro/internal/registry", 0)
	checkFixture(t, BodyCopy, "bad.go", "repro/internal/mirror", 0)
	checkFixture(t, BodyCopy, "good.go", "repro/internal/registry", 0)
	checkFixture(t, BodyCopy, "suppressed.go", "repro/internal/mirror", 1)
}

func TestBodyCopyOutOfScope(t *testing.T) {
	// Only the packages that serve blob bodies are held to the helper.
	diags := runFixture(t, BodyCopy, "bad.go", "repro/internal/serve")
	if len(diags) != 0 {
		t.Errorf("serve scope: got %d diagnostics, want 0: %+v", len(diags), diags)
	}
}

// TestAllAnalyzersRegistered pins the multichecker's rule set: a new
// analyzer must be added to All() or repolint never runs it.
func TestAllAnalyzersRegistered(t *testing.T) {
	want := []string{"noadhocclock", "noglobalrand", "nodefaultclient", "ctxpropagate", "errenvelope", "bodycopy"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing Doc or Run", a.Name)
		}
	}
}

// TestParseAllow pins the directive grammar: rule and reason are both
// mandatory.
func TestParseAllow(t *testing.T) {
	cases := []struct {
		text   string
		ok     bool
		rule   string
		reason string
	}{
		{"//lint:allow noadhocclock the clock seam", true, "noadhocclock", "the clock seam"},
		{"//lint:allow noadhocclock", false, "", ""},
		{"//lint:allow", false, "", ""},
		{"// lint:allow noadhocclock spaced out", false, "", ""},
		{"//nolint:adhoc whatever", false, "", ""},
	}
	for _, c := range cases {
		d, ok := parseAllow(c.text)
		if ok != c.ok {
			t.Errorf("parseAllow(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if d.rule != c.rule || d.reason != c.reason {
			t.Errorf("parseAllow(%q) = (%q, %q), want (%q, %q)", c.text, d.rule, d.reason, c.rule, c.reason)
		}
	}
}
