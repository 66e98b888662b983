// Command goldencheck fingerprints a reproduction run: for every mode of
// the matrix and every requested worker count it executes the full study
// at a fixed seed and prints a SHA-256 over the rendered figures.
// Identical fingerprints across worker counts and across code versions
// certify that refactors of the orchestration layer left the science
// bit-identical.
//
// Usage:
//
//	goldencheck [-scale 0.0001] [-model-scale 0.0002] [-seed 0] [-workers 1,4,8]
//
// The matrix always runs whole: 10 rows. Beside the model run it holds
// six wire-path modes — direct, through the caching mirror (cold and
// pre-warmed cache), through the sharded cluster's router (one node, and
// four nodes at two replicas), and from the file-deduplicating storage
// backend, where every pull reconstructs the exact wire bytes from the
// content pool. Every wire-path mode at the same scale must render the
// exact bytes of the direct wire run — goldencheck verifies this itself
// and exits non-zero on any divergence.
//
// The last three modes are resident-service runs: images pushed over HTTP
// into the live-analytics registry, figures rendered from the
// incrementally maintained index (no batch pass) — without churn, with
// liveChurn of the population deleted and re-pushed mid-run, and over the
// deduplicating store, where the index observes the store's own one-pass
// walk instead of a byte tee. Each live run's figures are checked against
// a batch AnalyzeStore pass over the registry the run left behind and
// all live runs, across modes and worker counts, against each other; any
// divergence exits non-zero. The live figure set has no
// crawl/download inputs (no tabM/fig25), so it fingerprints in its own
// reference group, not against the wire runs.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/topology"
)

const (
	// mirrorBytes is the mirror modes' cache byte budget.
	mirrorBytes = 8 << 20
	// liveChurn is the fraction of the population the churned live run
	// deletes and re-pushes.
	liveChurn = 0.3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: one line per row × workers on stdout, errors on
// stderr. It returns the exit code (2 for usage errors, 1 for a failed
// run or a divergence).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("goldencheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.0001, "wire/live dataset scale")
	modelScale := fs.Float64("model-scale", 0.0002, "model dataset scale")
	seed := fs.Int64("seed", 0, "dataset seed override (0 = spec default)")
	workersList := fs.String("workers", "1,4,8", "comma-separated worker counts")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var workers []int
	for _, tok := range strings.Split(*workersList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			fmt.Fprintf(stderr, "goldencheck: bad -workers entry %q\n", tok)
			return 2
		}
		workers = append(workers, n)
	}

	// Each row is a name and the topology the study stands up (nil: the
	// model study, which has none).
	modes := []struct {
		name string
		topo *repro.Topology
	}{
		{"model", nil},
		{"wire", &repro.Topology{}},
		{"mirror-cold", &repro.Topology{MirrorBytes: mirrorBytes}},
		{"mirror-warm", &repro.Topology{MirrorBytes: mirrorBytes, MirrorWarm: true}},
		{"cluster-n1", &repro.Topology{Nodes: 1, Replicas: 1}},
		{"cluster-n4", &repro.Topology{Nodes: 4, Replicas: 2}},
		{"dedup", &repro.Topology{Storage: repro.Dedup}},
		{"live", &repro.Topology{Acquire: repro.LivePush, Ingest: true}},
		{"live-churn", &repro.Topology{Acquire: repro.LivePush, Ingest: true, Churn: liveChurn}},
		{"live-dedup", &repro.Topology{Acquire: repro.LivePush, Ingest: true, Storage: repro.Dedup}},
	}

	// Every wire-path mode must render byte-identical figures; the direct
	// wire run at the same worker count is the reference. Live modes form
	// their own reference group (no crawl/download figures) and are
	// additionally checked against their own batch reference.
	wireRef := make(map[int]string)
	liveRef := ""
	diverged := false
	for _, mode := range modes {
		for _, w := range workers {
			opts := repro.Options{Scale: *scale, Seed: *seed, Workers: w, Topology: mode.topo}
			if mode.topo == nil {
				opts.Scale = *modelScale
			}
			res, err := repro.Run(opts)
			if err != nil {
				fmt.Fprintf(stderr, "goldencheck: %s w=%d: %v\n", mode.name, w, err)
				return 1
			}
			sum := fingerprint(res.Figures)
			extra := ""
			topo := repro.Topology{}
			var st topology.Stats
			if mode.topo != nil {
				topo, st = *mode.topo, res.Stack.Stats()
			}
			if topo.MirrorBytes > 0 {
				extra = fmt.Sprintf(" cache-hit=%.3f", st.Mirror.HitRatio())
			}
			if topo.Nodes > 0 {
				var blobGets int64
				for _, ns := range st.Nodes {
					blobGets += ns.Registry.BlobGets
				}
				extra += fmt.Sprintf(" nodes=%d node-blob-gets=%d", len(st.Nodes), blobGets)
			}
			if topo.Storage == repro.Dedup {
				extra += fmt.Sprintf(" dedup-savings=%.2fx", st.Origin.Dedup.SavingsRatio())
			}
			live := topo.Acquire == repro.LivePush
			if live {
				extra += fmt.Sprintf(" walked=%d deletes=%d",
					st.Origin.Ingest.BlobsWalked, st.Origin.Ingest.TagDeletes)
				// The incremental index against a fresh batch pass over the
				// registry this very run left behind — the core claim.
				batch, err := core.LiveBatchFigures(res, w)
				if err != nil {
					fmt.Fprintf(stderr, "goldencheck: %s w=%d batch reference: %v\n", mode.name, w, err)
					return 1
				}
				if fingerprint(batch) != sum {
					extra += "  << DIVERGES from batch reference"
					diverged = true
				}
				if liveRef == "" {
					liveRef = sum
				} else if sum != liveRef {
					extra += "  << DIVERGES from live"
					diverged = true
				}
			}
			if mode.topo != nil && !live {
				if ref, ok := wireRef[w]; !ok {
					wireRef[w] = sum
				} else if sum != ref {
					extra += "  << DIVERGES from wire"
					diverged = true
				}
			}
			fmt.Fprintf(stdout, "%-11s workers=%d figures=%d sha256=%s%s\n",
				mode.name, w, len(res.Figures), sum, extra)
		}
	}
	if diverged {
		fmt.Fprintln(stderr, "goldencheck: wire-path fingerprints diverged")
		return 1
	}
	return 0
}

// fingerprint hashes the rendered figures.
func fingerprint(figs []repro.Figure) string {
	h := sha256.New()
	for _, fig := range figs {
		fmt.Fprintln(h, fig.String())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
