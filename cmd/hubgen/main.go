// Command hubgen generates a synthetic Docker Hub and materializes it to
// disk: real gzip-compressed layer tarballs in a content-addressed blob
// store plus a hub-state file describing repositories and tags. The output
// directory is what cmd/hubregistry serves.
//
// Usage:
//
//	hubgen -out ./hub [-scale 0.0002] [-seed N]
//
// Scale is in paper units (1.0 = 457,627 repositories); materialized runs
// should stay small since the byte volume is real.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/synth"
)

func main() {
	out := flag.String("out", "", "output directory (required)")
	scale := flag.Float64("scale", 0.0002, "dataset scale")
	seed := flag.Int64("seed", 0, "override dataset seed (0 = default)")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "hubgen: -out is required")
		os.Exit(2)
	}

	spec := synth.MaterializeSpec(*scale)
	if *seed != 0 {
		spec.Seed = *seed
	}

	start := time.Now()
	d, err := synth.Generate(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("generated hub: %d repos, %d images, %d layers, %d file instances (%s)\n",
		len(d.Repos), len(d.Images), len(d.Layers), d.FileInstances(), time.Since(start).Round(time.Millisecond))

	store, err := blobstore.NewDisk(filepath.Join(*out, "blobs"))
	if err != nil {
		fatal(err)
	}
	reg := registry.New(store)
	start = time.Now()
	mat, err := synth.Materialize(d, reg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("materialized %d layer blobs, %s compressed (%s)\n",
		len(mat.LayerDigests), report.FormatBytes(float64(mat.TotalBytes)), time.Since(start).Round(time.Millisecond))

	st := core.BuildHubState(d, mat)
	statePath := filepath.Join(*out, "hubstate.json")
	if err := st.Save(statePath); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s; serve with: hubregistry -data %s\n", statePath, *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hubgen:", err)
	os.Exit(1)
}
