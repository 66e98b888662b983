// Push-pull: the full registry lifecycle of Figure 1 over the wire — build
// a layer tarball, push blobs and a manifest to the registry, pull the
// image back, analyze its content, retag, and garbage-collect the orphaned
// blobs.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/downloader"
	"repro/internal/manifest"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/tarutil"
	"repro/internal/topology"
)

func main() {
	group := &serve.Group{}
	stack, err := topology.Provision(group, topology.Topology{}, topology.Site{})
	if err != nil {
		log.Fatal(err)
	}
	defer group.Shutdown(context.Background())
	reg, client := stack.Origin.Registry, stack.Client
	reg.CreateRepo("demo/app", false)

	// --- build: a layer tarball, the way docker build would.
	var layer bytes.Buffer
	b, err := tarutil.NewGzipBuilder(&layer, 0)
	if err != nil {
		log.Fatal(err)
	}
	must(b.Dir("app"))
	must(b.File("app/run.sh", []byte("#!/bin/sh\nexec ./server\n")))
	must(b.File("app/config.json", []byte(`{"port": 8080}`)))
	must(b.File("app/README", []byte("demo application\n")))
	must(b.Close())

	// --- push: blobs first, then the manifest referencing them.
	layerDg, err := client.PushBlob("demo/app", layer.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	config := []byte(`{"architecture":"amd64","os":"linux"}`)
	configDg, err := client.PushBlob("demo/app", config)
	if err != nil {
		log.Fatal(err)
	}
	m, err := manifest.New(
		manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: int64(len(config)), Digest: configDg},
		[]manifest.Descriptor{{MediaType: manifest.MediaTypeLayer, Size: int64(layer.Len()), Digest: layerDg}},
	)
	if err != nil {
		log.Fatal(err)
	}
	md, err := client.PushManifest("demo/app", "latest", m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pushed demo/app:latest (%s, 1 layer, %s)\n", md.Short(),
		report.FormatBytes(float64(layer.Len())))

	// --- pull: the paper's downloader path.
	sink := blobstore.NewMemory()
	dl := &downloader.Downloader{Client: client, Store: sink}
	res, err := dl.Run([]string{"demo/app"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pulled %d image(s), %s over the wire\n",
		res.Stats.Downloaded, report.FormatBytes(float64(res.Stats.Bytes)))

	// --- analyze: the paper's profiler on the pulled bytes.
	analysis, err := analyzer.AnalyzeStore(sink, res.Images, 2)
	if err != nil {
		log.Fatal(err)
	}
	lp := analysis.Layers[0]
	fmt.Printf("layer profile: %d files, %d dirs, depth %d, FLS %s, ratio %.2f\n",
		lp.FileCount, lp.DirCount, lp.MaxDepth,
		report.FormatBytes(float64(lp.FLS)), lp.Ratio())

	// --- retag + GC: push v2, the old layer becomes garbage.
	var layer2 bytes.Buffer
	b2, err := tarutil.NewGzipBuilder(&layer2, 0)
	if err != nil {
		log.Fatal(err)
	}
	must(b2.File("app/run.sh", []byte("#!/bin/sh\nexec ./server --v2\n")))
	must(b2.Close())
	l2, err := client.PushBlob("demo/app", layer2.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	m2, err := manifest.New(m.Config, []manifest.Descriptor{
		{MediaType: manifest.MediaTypeLayer, Size: int64(layer2.Len()), Digest: l2},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := client.PushManifest("demo/app", "latest", m2); err != nil {
		log.Fatal(err)
	}
	removed, freed, err := reg.GC()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retagged latest; GC removed %d orphaned blob(s), freed %s\n",
		removed, report.FormatBytes(float64(freed)))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
