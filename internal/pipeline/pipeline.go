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
	"sync"
	"sync/atomic"
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
// it is stored, then assembles the analysis from those walks; a layer
// without one (its inline walk failed) is walked from the store again.
// dl.Store is required: the walks read it. dl.LayerStored is owned by the
// pipeline for the duration of the call. dl.Workers bounds the
// assembly-phase walk workers as well.
func Run(ctx context.Context, dl *downloader.Downloader, repos []string) (*Result, error) {
	var mu sync.Mutex
	walked := make(map[digest.Digest]*analyzer.WalkedLayer)

	dl.LayerStored = func(d digest.Digest) {
		wl, err := analyzer.WalkStored(dl.Store, d)
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

	// Every hook call has returned, so walked is only read from here on.
	res := &Result{Download: dres, WalkedInline: len(walked)}
	var reWalked atomic.Int64
	start := engine.SystemNow()
	ares, err := analyzer.AnalyzeWalks(ctx, dres.Images, func(d digest.Digest) (*analyzer.WalkedLayer, error) {
		if wl := walked[d]; wl != nil {
			return wl, nil
		}
		reWalked.Add(1)
		return analyzer.WalkStored(dl.Store, d)
	}, dl.Workers)
	if err != nil {
		return nil, err
	}
	res.AssembleWall = engine.SystemNow().Sub(start)
	res.Analysis = ares
	res.ReWalked = int(reWalked.Load())
	return res, nil
}
