// Command analyze runs the paper's study against a running hub (§III):
// it crawls the search API (§III-A), downloads every repository's
// latest-tag image (§III-B) while walking each layer as it streams off the
// wire (§III-C), and prints the methodology table and the layer/image/file
// figures. Verified blobs land in <out>/blobs, one file per blob named by
// its hex digest.
//
// Usage:
//
//	analyze -search http://localhost:5001 -registry http://localhost:5000 -out ./downloaded [-workers N]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/blobstore"
	"repro/internal/crawler"
	"repro/internal/downloader"
	"repro/internal/hubapi"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/report"
)

func main() {
	// SIGINT/SIGTERM aborts the crawl and in-flight transfers cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: figures go to stdout, accounting and errors to
// stderr. It returns the exit code (2 for usage errors).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	search := fs.String("search", "http://localhost:5001", "search API base URL")
	regURL := fs.String("registry", "http://localhost:5000", "registry base URL")
	out := fs.String("out", "", "output directory; blobs land in <out>/blobs (required)")
	workers := fs.Int("workers", 8, "concurrent page fetches, image downloads and layer walks")
	layerWorkers := fs.Int("layer-workers", 0, "concurrent layer transfers across all images (0 = 2x workers)")
	byteBudget := fs.Int64("byte-budget", 0, "max manifest-declared bytes in flight at once (0 = unlimited)")
	token := fs.String("token", "", "bearer token for private repositories")
	retries := fs.Int("retries", 1, "extra attempts for transient failures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "analyze: -out is required")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "analyze:", err)
		return 1
	}

	store, err := blobstore.NewDisk(filepath.Join(*out, "blobs"))
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	cr := &crawler.Crawler{Client: &hubapi.Client{Base: *search}, Workers: *workers}
	crawl, err := cr.RunContext(ctx)
	if err != nil {
		return fail(err)
	}
	dl := &downloader.Downloader{
		Client:       &registry.Client{Base: *regURL, Token: *token},
		Workers:      *workers,
		LayerWorkers: *layerWorkers,
		ByteBudget:   *byteBudget,
		Store:        store,
		Retries:      *retries,
	}
	res, err := pipeline.Run(ctx, dl, crawl.Repos)
	if err != nil {
		return fail(err)
	}
	a := res.Analysis
	fmt.Fprintf(stderr, "analyze: %d repos, %d images, %d unique layers (%d walked inline, %d re-walked), %d file instances (%s)\n",
		len(crawl.Repos), len(a.Images), len(a.Layers), res.WalkedInline, res.ReWalked,
		a.Index.Instances(), time.Since(start).Round(time.Millisecond))

	src := &report.Source{Analysis: a, Crawl: crawl, Download: &res.Download.Stats}
	for _, fig := range report.All(src) {
		fmt.Fprintln(stdout, fig)
	}
	return 0
}
