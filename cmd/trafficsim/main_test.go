package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trafficsim"
)

// A tiny self-provisioned flash-crowd run completes every request and
// writes a bench document that parses back into one run with an SLO
// verdict.
func TestFlashCrowdWritesBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-scenarios", "flash-crowd", "-rates", "200", "-n", "20", "-scale", "0.001", "-json", path}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc trafficsim.BenchReport
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("bench document does not parse: %v", err)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("%d runs recorded, want 1", len(doc.Runs))
	}
	r := doc.Runs[0]
	if r.Scenario != "flash-crowd" || r.Completed != 20 || r.Errors != 0 || r.SLO == nil {
		t.Fatalf("run = %+v", r)
	}
	if doc.SLO != "p99<=500ms,err<=0.01" {
		t.Fatalf("SLO = %q", doc.SLO)
	}
}

// Removed flags, unknown names, bad numbers and impossible combinations
// are usage errors, found before any stack is provisioned: nothing runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-node-bw", "262144"},
		{"-slo-percentile", "99.9"},
		{"-burst-ratio", "8"},
		{"-arrivals", "closed", "-search", "pull-storm"},
		{"-arrivals", "burst"},
		{"-scenarios", "pull-storm,nosuch"},
		{"-compare", "pull-storm"},
		{"-search", "pull-storm", "-search-lo", "50", "-search-hi", "10"},
		{"-n", "0"},
		{"-arrivals", "closed", "-workers", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran before refusing: %q", args, stdout.String())
		}
	}
}
