// Dockerfile build: reproduce the paper's most curious finding — the
// single most-shared layer in Docker Hub (referenced by 184,171 images) is
// an EMPTY layer created whenever a RUN command changes no files (§V-A).
//
// A fleet of Dockerfiles is built and pushed; most contain a no-op RUN
// (ldconfig, apt-get clean, echo-to-stdout …), so their manifests all
// reference the one canonical empty layer. Analyzing the registry then
// shows that layer with the highest reference count — mechanism, not
// coincidence.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/downloader"
	"repro/internal/imagebuild"
	"repro/internal/serve"
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
	builder := &imagebuild.Builder{Resolver: imagebuild.ClientResolver(client)}

	// Two base images (think debian and alpine) so no single base layer
	// reaches every app — but every app's no-op RUN yields the SAME empty
	// layer.
	var repos []string
	for _, b := range []struct{ name, release string }{
		{"library/debbie", "synthetic-debian 9"},
		{"library/alp", "synthetic-alpine 3.6"},
	} {
		reg.CreateRepo(b.name, false)
		// Note: a shared "MKDIR /etc" here would itself become a layer
		// identical across both bases — content addressing would dedup it
		// into a 14-reference layer that beats the empty layer. Real
		// Dockerfiles differ enough that this rarely happens; the demo
		// keeps each base to its distinctive os-release.
		base, err := builder.Build(fmt.Sprintf(`
FROM scratch
COPY /etc/os-release %s
`, b.release))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := imagebuild.Push(client, b.name, "latest", base); err != nil {
			log.Fatal(err)
		}
		repos = append(repos, b.name)
	}

	// A fleet of app images; the no-op RUNs vary but all yield the same
	// empty layer.
	noops := []string{"ldconfig", "apt-get clean", "echo build complete", "update-ca-certificates"}
	bases := []string{"library/debbie", "library/alp"}
	for i := 0; i < 12; i++ {
		df := fmt.Sprintf(`
FROM %s
COPY /app/main.conf instance-%d
RUN %s
`, bases[i%2], i, noops[i%len(noops)])
		img, err := builder.Build(df)
		if err != nil {
			log.Fatal(err)
		}
		repo := fmt.Sprintf("user%d/app", i)
		reg.CreateRepo(repo, false)
		if _, err := imagebuild.Push(client, repo, "latest", img); err != nil {
			log.Fatal(err)
		}
		repos = append(repos, repo)
	}

	// Pull everything back and profile it — the paper's pipeline over a
	// registry populated by builds instead of a crawl.
	sink := blobstore.NewMemory()
	dl := &downloader.Downloader{Client: client, Store: sink}
	res, err := dl.Run(repos)
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := analyzer.AnalyzeStore(sink, res.Images, 4)
	if err != nil {
		log.Fatal(err)
	}

	emptyDigest := digest.FromBytes(imagebuild.EmptyLayer())
	fmt.Printf("built and pushed %d images (%d layers in registry)\n",
		len(repos), len(analysis.Layers))
	var top *analyzer.LayerProfile
	for i := range analysis.Layers {
		if top == nil || analysis.Layers[i].Refs > top.Refs {
			top = &analysis.Layers[i]
		}
	}
	fmt.Printf("most-referenced layer: %s (%d refs, %d files, CLS %dB)\n",
		top.Digest.Short(), top.Refs, top.FileCount, top.CLS)
	if top.Digest == emptyDigest && top.FileCount == 0 {
		fmt.Println("=> it is the empty layer, exactly as the paper found for Docker Hub")
	} else {
		fmt.Println("=> unexpected: the empty layer is not on top")
	}
}
