// Package pipeline fuses download and analysis into one pass: every
// verified layer stream is teed into the tarball walker while it crosses
// the wire, so analysis overlaps the network and the store write, and the
// run's wall clock approaches max(download, analyze) instead of their sum.
// The paper's acquisition pipeline (§III-B) has the same shape — the
// analyzer keeps pace with the custom downloader rather than running as a
// second pass over 47 TB of stored layers.
//
// Results are bit-identical to the two-phase download-then-analyze path:
// the walker consumes the same verified bytes (a tee attempt only counts
// when the transfer's digest verdict is clean), and the assembly phase
// reuses the analyzer's order-independent census plus ordered drain.
package pipeline

import (
	"context"
	"io"
	"sync"
	"time"

	"repro/internal/analyzer"
	"repro/internal/digest"
	"repro/internal/downloader"
	"repro/internal/engine"
)

// Result bundles the fused run.
type Result struct {
	Download *downloader.Result
	Analysis *analyzer.Result
	// WalkedInline counts layers analyzed from the wire tee; ReWalked
	// counts layers the assembly phase had to fetch back from the store
	// (tee attempts whose transfer failed and was later retried without
	// success being observed, normally 0).
	WalkedInline int
	ReWalked     int
	// DownloadWall and AssembleWall split the run's wall clock: the
	// download phase already contains the inline analysis work, so the
	// fused total is DownloadWall + AssembleWall ≈ max(download, analyze)
	// of the two-phase run.
	DownloadWall time.Duration
	AssembleWall time.Duration
}

// Run downloads repos with dl while walking every unique layer as it
// streams past, then assembles the analysis from the pre-walked layers.
// dl.LayerTee is owned by the pipeline for the duration of the call.
// dl.Workers bounds the assembly-phase walk workers as well.
func Run(ctx context.Context, dl *downloader.Downloader, repos []string) (*Result, error) {
	var mu sync.Mutex
	walked := make(map[digest.Digest]*analyzer.WalkedLayer)

	dl.LayerTee = func(d digest.Digest, r io.Reader) {
		wl, err := analyzer.WalkLayerReader(d, r)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			// The attempt failed (mid-stream error, digest mismatch, or an
			// unparseable tarball): forget it. A retry records a fresh walk.
			delete(walked, d)
			return
		}
		walked[d] = wl
	}
	defer func() { dl.LayerTee = nil }()

	start := engine.SystemNow()
	dres, err := dl.RunContext(ctx, repos)
	if err != nil {
		return nil, err
	}
	// The downloader classifies per-repo context errors as repo failures
	// rather than aborting; surface mid-run cancellation as the clean
	// context error the caller expects.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	downloadWall := engine.SystemNow().Sub(start)

	res := &Result{Download: dres, DownloadWall: downloadWall, WalkedInline: len(walked)}

	// Count the layers the assembly phase will have to re-walk from the
	// store (referenced by a downloaded image but missing from the tee).
	seen := make(map[digest.Digest]bool)
	for _, img := range dres.Images {
		for _, ld := range img.Manifest.LayerDigests() {
			if !seen[ld] {
				seen[ld] = true
				if walked[ld] == nil {
					res.ReWalked++
				}
			}
		}
	}

	start = engine.SystemNow()
	ares, err := analyzer.AnalyzeWalkedContext(ctx, dl.Store, dres.Images, walked, engine.Workers(dl.Workers))
	if err != nil {
		return nil, err
	}
	res.AssembleWall = engine.SystemNow().Sub(start)
	res.Analysis = ares
	return res, nil
}
