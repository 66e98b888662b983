// Package pipeline fuses download and analysis into one pass: every layer
// is walked on the transfer worker that stored it, right after it is
// stored, so analysis overlaps the other workers' transfers and the run's
// wall clock approaches max(download, analyze) instead of their sum. The
// paper's acquisition pipeline (§III-B) has the same shape — the analyzer
// keeps pace with the custom downloader rather than running as a second
// pass over 47 TB of stored layers.
//
// Results are bit-identical to the two-phase download-then-analyze path:
// the walker reads the same verified bytes back from the store, and the
// assembly phase is the analyzer's own serial fold of the walks, which
// does not care in which order the transfer workers finished them.
package pipeline

import (
	"context"
	"errors"
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
	// WalkedInline counts layers walked on the transfer workers; ReWalked
	// counts layers the assembly phase had to walk from the store itself
	// (a layer whose inline walk failed, normally 0).
	WalkedInline int
	ReWalked     int
	// AssembleWall is the wall clock of the assembly that follows the
	// download phase (which already contains the inline analysis work).
	AssembleWall time.Duration
}

// Run downloads repos with dl while walking every unique layer as soon as
// it is stored, then assembles the analysis from the pre-walked layers.
// dl.Store is required: the walks read it. dl.LayerStored is owned by the
// pipeline for the duration of the call. dl.Workers bounds the
// assembly-phase walk workers as well.
func Run(ctx context.Context, dl *downloader.Downloader, repos []string) (*Result, error) {
	if dl.Store == nil {
		return nil, errors.New("pipeline: nil store: stored layers are walked from it")
	}
	var mu sync.Mutex
	walked := make(map[digest.Digest]*analyzer.WalkedLayer)

	dl.LayerStored = func(d digest.Digest) {
		rc, _, err := dl.Store.Get(d)
		if err != nil {
			return
		}
		wl, err := analyzer.WalkLayerReader(d, rc)
		rc.Close()
		if err != nil {
			// Not a walkable layer: the assembly walks it again from the
			// store and reports why.
			return
		}
		mu.Lock()
		walked[d] = wl
		mu.Unlock()
	}
	defer func() { dl.LayerStored = nil }()

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

	res := &Result{Download: dres, WalkedInline: len(walked)}

	// Count the layers the assembly phase will have to re-walk from the
	// store (referenced by a downloaded image but not walked inline).
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

	start := engine.SystemNow()
	ares, err := analyzer.AnalyzeWalkedContext(ctx, dl.Store, dres.Images, walked, engine.Workers(dl.Workers))
	if err != nil {
		return nil, err
	}
	res.AssembleWall = engine.SystemNow().Sub(start)
	res.Analysis = ares
	return res, nil
}
