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
// The matrix always runs whole. Beside the model run it holds nine
// wire-path modes — direct two-phase and fused, through the caching
// mirror (cold and pre-warmed cache), through the sharded cluster's
// router (one node, and four nodes at two replicas), and from the
// file-deduplicating storage backend (two-phase and fused), where every
// pull reconstructs the exact wire bytes from the content pool. Every
// wire-path mode at the same scale must render the exact bytes of the
// direct wire run — goldencheck verifies this itself and exits non-zero
// on any divergence.
//
// The last two modes are resident-service runs: images pushed over HTTP
// into the live-analytics registry, figures rendered from the
// incrementally maintained index (no batch pass), once without churn and
// once with liveChurn of the population deleted and re-pushed mid-run.
// Each live run's figures are checked against a batch AnalyzeStore pass
// over the registry the run left behind, the churned run against the
// churn-free one, and all live runs across worker counts against each
// other; any divergence exits non-zero. The live figure set has no
// crawl/download inputs (no tabM/fig25), so it fingerprints in its own
// reference group, not against the wire runs.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/core"
)

const (
	// mirrorBytes is the mirror modes' cache byte budget.
	mirrorBytes = 8 << 20
	// liveChurn is the fraction of the population the churned live run
	// deletes and re-pushes.
	liveChurn = 0.3
)

func main() {
	scale := flag.Float64("scale", 0.0001, "wire/fused dataset scale")
	modelScale := flag.Float64("model-scale", 0.0002, "model dataset scale")
	seed := flag.Int64("seed", 0, "dataset seed override (0 = spec default)")
	workersList := flag.String("workers", "1,4,8", "comma-separated worker counts")
	flag.Parse()

	var workers []int
	for _, tok := range strings.Split(*workersList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "goldencheck: bad -workers entry %q\n", tok)
			os.Exit(2)
		}
		workers = append(workers, n)
	}

	type mode struct {
		name        string
		wire        bool
		fused       bool
		scale       float64
		mirrorBytes int64
		mirrorWarm  bool
		nodes       int
		replicas    int
		dedup       bool
		live        bool
		churn       float64
	}
	modes := []mode{
		{name: "model", scale: *modelScale},
		{name: "wire", wire: true, scale: *scale},
		{name: "fused", wire: true, fused: true, scale: *scale},
		{name: "mirror-cold", wire: true, scale: *scale, mirrorBytes: mirrorBytes},
		{name: "mirror-warm", wire: true, scale: *scale, mirrorBytes: mirrorBytes, mirrorWarm: true},
		{name: "cluster-n1", wire: true, scale: *scale, nodes: 1, replicas: 1},
		{name: "cluster-n4", wire: true, scale: *scale, nodes: 4, replicas: 2},
		{name: "dedup", wire: true, scale: *scale, dedup: true},
		{name: "dedup-fused", wire: true, fused: true, scale: *scale, dedup: true},
		{name: "live", live: true, scale: *scale},
		{name: "live-churn", live: true, scale: *scale, churn: liveChurn},
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
			res, err := repro.Run(repro.Options{
				Scale:            mode.scale,
				Seed:             *seed,
				Wire:             mode.wire,
				Fused:            mode.fused,
				Workers:          w,
				MirrorCacheBytes: mode.mirrorBytes,
				MirrorWarm:       mode.mirrorWarm,
				ClusterNodes:     mode.nodes,
				ClusterReplicas:  mode.replicas,
				DedupStorage:     mode.dedup,
				Live:             mode.live,
				LiveChurn:        mode.churn,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "goldencheck: %s w=%d: %v\n", mode.name, w, err)
				os.Exit(1)
			}
			h := sha256.New()
			for _, fig := range res.Figures {
				fmt.Fprintln(h, fig.String())
			}
			sum := fmt.Sprintf("%x", h.Sum(nil))
			extra := ""
			if res.MirrorStats != nil {
				extra = fmt.Sprintf(" cache-hit=%.3f", res.MirrorStats.HitRatio())
			}
			if res.ClusterStats != nil {
				var blobGets int64
				for _, ns := range res.ClusterStats {
					blobGets += ns.Registry.BlobGets
				}
				extra += fmt.Sprintf(" nodes=%d node-blob-gets=%d", len(res.ClusterStats), blobGets)
			}
			if res.DedupStats != nil {
				extra += fmt.Sprintf(" dedup-savings=%.2fx", res.DedupStats.SavingsRatio())
			}
			if mode.live {
				extra += fmt.Sprintf(" walked=%d deletes=%d",
					res.IngestStats.BlobsWalked, res.IngestStats.TagDeletes)
				// The incremental index against a fresh batch pass over the
				// registry this very run left behind — the core claim.
				batch, err := core.LiveBatchFigures(res, w)
				if err != nil {
					fmt.Fprintf(os.Stderr, "goldencheck: %s w=%d batch reference: %v\n", mode.name, w, err)
					os.Exit(1)
				}
				bh := sha256.New()
				for _, fig := range batch {
					fmt.Fprintln(bh, fig.String())
				}
				if fmt.Sprintf("%x", bh.Sum(nil)) != sum {
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
			if mode.wire {
				if ref, ok := wireRef[w]; !ok {
					wireRef[w] = sum
				} else if sum != ref {
					extra += "  << DIVERGES from wire"
					diverged = true
				}
			}
			fmt.Printf("%-11s workers=%d figures=%d sha256=%s%s\n",
				mode.name, w, len(res.Figures), sum, extra)
		}
	}
	if diverged {
		fmt.Fprintln(os.Stderr, "goldencheck: wire-path fingerprints diverged")
		os.Exit(1)
	}
}
