// Registry pipeline: the paper's full §III methodology end to end over
// real bytes — materialize a synthetic hub into an in-process Docker
// Registry v2 server, crawl the Hub search API, download every latest-tag
// image over HTTP (unique layers only), and analyze the actual tarballs.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/report"
)

func main() {
	// Wire mode serves the registry + search API over loopback HTTP and
	// runs the crawler and downloader against it. Layer bytes are real,
	// so keep the scale small.
	res, err := repro.Run(repro.Options{Scale: 0.0002, Workers: 8, Topology: &repro.Topology{}})
	if err != nil {
		log.Fatal(err)
	}

	c, dl := res.Crawl, res.Download.Stats
	fmt.Println("— crawl (paper: 634,412 raw entries -> 457,627 distinct repos)")
	fmt.Printf("  %d raw entries -> %d distinct repos (%d duplicates injected by Hub indexing)\n\n",
		c.RawEntries, len(c.Repos), c.Duplicates)

	fmt.Println("— download (paper: 13% of failures auth-gated, 87% missing latest tag)")
	fmt.Printf("  %d attempted, %d downloaded, %d auth failures, %d without latest tag\n",
		dl.Attempted, dl.Downloaded, dl.AuthFailures, dl.NoLatest)
	fmt.Printf("  unique layers transferred: %d (%s); shared-layer fetches avoided: %d\n\n",
		dl.UniqueLayers, report.FormatBytes(float64(dl.Bytes)), dl.SkippedLayers)

	fmt.Println("— registry-side accounting")
	st := res.Stack.Stats().Origin.Registry
	fmt.Printf("  manifests served: %d, blobs served: %d (%s), auth denials: %d\n\n",
		st.ManifestGets, st.BlobGets, report.FormatBytes(float64(st.BlobBytes)), st.AuthDenied)

	// The same analyzer that handles the model handled these real bytes.
	fmt.Println("— analysis of the downloaded tarballs")
	fmt.Printf("  %d images, %d layers, %d file instances, %d unique contents\n",
		len(res.Analysis.Images), len(res.Analysis.Layers),
		res.Analysis.Index.Instances(), res.Analysis.Index.Unique())
	for _, fig := range res.Figures {
		if fig.ID == "tabM" {
			fmt.Println()
			fmt.Println(fig)
		}
	}
}
