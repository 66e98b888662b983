package topology

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"testing"

	"repro/internal/analytics"
	"repro/internal/analyzer"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/tarutil"
)

// pushWireImage uploads one synth image (all its layers, config,
// manifest) to a node over HTTP, so the node's ingest hook sees every
// blob. Layers are pushed unconditionally — concurrent duplicate uploads
// of the same digest are part of what the e2e exercises.
func pushWireImage(client *registry.Client, d *synth.Dataset, repo string, imgID synth.ImageID) (*manifest.Manifest, error) {
	layers := d.ImageLayers(imgID)
	descs := make([]manifest.Descriptor, len(layers))
	for j, l := range layers {
		blob, err := synth.RenderLayer(d, l, new(tarutil.Builder))
		if err != nil {
			return nil, err
		}
		if _, err := client.PushBlobContext(context.Background(), repo, blob); err != nil {
			return nil, fmt.Errorf("layer %d: %w", l, err)
		}
		descs[j] = synth.LayerDescriptor(blob)
	}
	cfg, m, err := synth.BuildImage(synth.Created(imgID), descs)
	if err != nil {
		return nil, err
	}
	if _, err := client.PushBlobContext(context.Background(), repo, cfg); err != nil {
		return nil, err
	}
	if _, err := client.PushManifestContext(context.Background(), repo, "latest", m); err != nil {
		return nil, err
	}
	return m, nil
}

func figsFingerprint(figs []report.Figure) string {
	h := sha256.New()
	for i := range figs {
		fmt.Fprint(h, figs[i].String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestNodeLiveConcurrentChurnMatchesBatch is the end-to-end race test:
// N concurrent wire pushes interleaved with M concurrent tag deletes
// against one live-analytics cluster node, then the node's live figures
// must be sha256-identical to a fresh batch AnalyzeStore pass over the
// surviving images.
func TestNodeLiveConcurrentChurnMatchesBatch(t *testing.T) {
	ds, err := synth.Generate(synth.MaterializeSpec(0.0002))
	if err != nil {
		t.Fatal(err)
	}
	repos := synth.Repositories(ds)

	g := &serve.Group{}
	defer g.Shutdown(t.Context())
	c, err := Provision(g, Topology{Nodes: 3, Replicas: 2, Ingest: true}, Site{Repos: repos})
	if err != nil {
		t.Fatal(err)
	}
	node, live := c.Nodes[0].Registry, c.Nodes[0].Live
	if live == nil {
		t.Fatal("live analytics not wired onto node")
	}
	// The node's own client: its idle connections close when the node
	// shuts down.
	client := &registry.Client{Base: c.Nodes[0].URL, HTTP: c.Nodes[0].srv.Client(), Token: "cluster-live"}

	type push struct {
		name  string
		imgID synth.ImageID
		churn bool // deleted concurrently after its push lands
		done  chan struct{}
	}
	var pushes []*push
	for ri := range ds.Repos {
		r := &ds.Repos[ri]
		node.CreateRepo(r.Name, r.Private)
		if r.Downloadable() {
			pushes = append(pushes, &push{
				name:  r.Name,
				imgID: synth.ImageID(r.Image),
				done:  make(chan struct{}),
			})
		}
	}
	if len(pushes) < 6 {
		t.Fatalf("dataset too small for churn e2e: %d pushes", len(pushes))
	}
	sort.Slice(pushes, func(i, j int) bool { return pushes[i].name < pushes[j].name })
	for i, p := range pushes {
		p.churn = i%3 == 0
	}

	// N pushers drain the queue; M deleters each wait for one churned
	// repo's push to land, then DELETE its tag — all concurrently.
	work := make(chan *push)
	var wg sync.WaitGroup
	errs := make(chan error, len(pushes)*2)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				if _, err := pushWireImage(client, ds, p.name, p.imgID); err != nil {
					errs <- fmt.Errorf("push %s: %w", p.name, err)
				}
				close(p.done)
			}
		}()
	}
	for _, p := range pushes {
		if !p.churn {
			continue
		}
		wg.Add(1)
		go func(p *push) {
			defer wg.Done()
			<-p.done
			if err := client.DeleteManifestContext(context.Background(), p.name, "latest"); err != nil {
				errs <- fmt.Errorf("delete %s: %w", p.name, err)
			}
		}(p)
	}
	for _, p := range pushes {
		work <- p
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Survivors: exactly the non-churned repos keep their tag.
	for _, p := range pushes {
		tags, err := node.Tags(p.name)
		if err != nil {
			t.Fatal(err)
		}
		if p.churn != (len(tags) == 0) {
			t.Fatalf("%s: churn=%v but tags=%v", p.name, p.churn, tags)
		}
	}

	st := live.Stats()
	if st.BlobsWalked == 0 {
		t.Fatal("node walked nothing on the wire")
	}
	if st.SkippedLayers != 0 || st.FallbackWalks != 0 {
		t.Fatalf("degraded ingest under churn: %+v", st)
	}

	liveFigs, err := live.Snapshot().Figures()
	if err != nil {
		t.Fatal(err)
	}
	images, err := analytics.RegistryImages(node)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := analyzer.AnalyzeStore(node.Blobs(), images, 4)
	if err != nil {
		t.Fatal(err)
	}
	batchFigs := report.All(&report.Source{Analysis: batch, Repos: repos})
	if figsFingerprint(liveFigs) != figsFingerprint(batchFigs) {
		t.Fatal("node live figures != batch pass over survivors")
	}
}

// TestNodeServesAnalyticsAPI: a live-analytics node serves /analytics/
// next to /v2/ on the same listener.
func TestNodeServesAnalyticsAPI(t *testing.T) {
	g := &serve.Group{}
	defer g.Shutdown(t.Context())
	c, err := Provision(g, Topology{Nodes: 1, Ingest: true}, Site{})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v2/", "/analytics/summary"} {
		resp, err := http.Get(c.Nodes[0].URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(c.Nodes[0].URL + "/analytics/summary")
	if err != nil {
		t.Fatal(err)
	}
	var sum analytics.Summary
	err = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Images != 0 || sum.Epoch != 0 {
		t.Fatalf("fresh node summary: %+v", sum)
	}
	// Without Ingest the path does not exist.
	c2, err := Provision(g, Topology{Nodes: 1}, Site{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(c2.Nodes[0].URL + "/analytics/summary")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("plain node serves /analytics/")
	}
	if c.Nodes[0].Live == nil || c2.Nodes[0].Live != nil {
		t.Fatal("node Live wiring wrong")
	}
}
