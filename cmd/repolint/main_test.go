package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadModuleFails runs the multichecker over the known-bad testdata
// module and requires every rule to fire plus a nonzero exit — the
// end-to-end proof that a seeded violation cannot slip through make
// lint.
func TestBadModuleFails(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-dir", "testdata/badmod", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"noadhocclock",
		"noglobalrand",
		"nodefaultclient",
		"ctxpropagate",
		"errenvelope",
		"bodycopy",
		"internal/core/clock.go",
		"internal/mirror/handler.go",
		"internal/synth/synth.go",
		"repolint: 6 violation(s), 1 suppressed",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q\nstdout:\n%s", want, got)
		}
	}
}

// TestBadModuleVerbose checks that -v surfaces the suppressed
// diagnostic with its mandatory reason.
func TestBadModuleVerbose(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-dir", "testdata/badmod", "-v", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "suppressed: badmod's designated clock seam") {
		t.Errorf("verbose output missing suppression reason:\n%s", out.String())
	}
}

// TestListFlag pins the analyzer roster repolint advertises.
func TestListFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-list"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, errb.String())
	}
	for _, rule := range []string{"noadhocclock", "noglobalrand", "nodefaultclient", "ctxpropagate", "errenvelope", "bodycopy"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing %s:\n%s", rule, out.String())
		}
	}
}

// TestBadDirFails checks the load-error path returns exit 2.
func TestBadDirFails(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-dir", "testdata/definitely-missing", "./..."}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstdout:\n%s", code, out.String())
	}
}
