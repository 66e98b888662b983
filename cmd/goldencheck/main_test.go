package main

import (
	"bytes"
	"strings"
	"testing"
)

// The committed references: one fingerprint per figure group, and every
// row's extras.
const (
	modelSum = "980af2f017b7ce1a58af5b9942e1e08568b94ef696a918c50cc248336e00a966"
	wireSum  = "7d4f8b4a196cf45029e217a32aaebf97f89b77b2bf9fa6d43e262cb548742703"
	liveSum  = "342bbf19514d2ff2c4349c6d65b2b19d1d06f2e8c1ca5166c9a3c4cf7a646d3d"
)

var golden = strings.Join([]string{
	"model       workers=1 figures=27 sha256=" + modelSum,
	"wire        workers=1 figures=27 sha256=" + wireSum,
	"mirror-cold workers=1 figures=27 sha256=" + wireSum + " cache-hit=0.000",
	"mirror-warm workers=1 figures=27 sha256=" + wireSum + " cache-hit=0.500",
	"cluster-n1  workers=1 figures=27 sha256=" + wireSum + " nodes=1 node-blob-gets=258",
	"cluster-n4  workers=1 figures=27 sha256=" + wireSum + " nodes=4 node-blob-gets=258",
	"dedup       workers=1 figures=27 sha256=" + wireSum + " dedup-savings=2.00x",
	"live        workers=1 figures=26 sha256=" + liveSum + " walked=228 deletes=0",
	"live-churn  workers=1 figures=26 sha256=" + liveSum + " walked=228 deletes=11",
	"live-dedup  workers=1 figures=26 sha256=" + liveSum + " dedup-savings=2.00x walked=228 deletes=0",
}, "\n") + "\n"

// TestGoldenFingerprints pins every row of the matrix to the committed
// reference, so "the figures did not move" is checked by the suite rather
// than by eye against an older run.
func TestGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole matrix")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workers", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("goldencheck exited %d: %s", code, stderr.String())
	}
	if got := stdout.String(); got != golden {
		t.Fatalf("goldencheck -workers 1 printed\n%s\nwant\n%s", got, golden)
	}
}

func TestGoldenUsage(t *testing.T) {
	for _, args := range [][]string{{"-workers", "0"}, {"-workers", "x"}, {"-no-such-flag"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("goldencheck %q exited %d, want 2", args, code)
		}
	}
}
