package topology

import (
	"bytes"
	"context"
	"net/http"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/tarutil"
)

func TestValidate(t *testing.T) {
	good := []Topology{
		{},
		{Storage: Dedup},
		{Nodes: 4, Replicas: 2, MirrorBytes: 1 << 20, MirrorWarm: true},
		{Nodes: 1, Replicas: 3}, // capped at Nodes, like hubregistry -replicas
		{Ingest: true, Nodes: 2},
		{Acquire: LivePush, Ingest: true, Storage: Dedup, Churn: 1},
	}
	for _, topo := range good {
		if err := topo.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", topo, err)
		}
	}
	bad := []Topology{
		{Nodes: -1},
		{MirrorBytes: -1},
		{Replicas: 2},
		{MirrorWarm: true},
		{Churn: 0.5},
		{Acquire: LivePush},
		{Acquire: LivePush, Ingest: true, Churn: 1.5},
		{Acquire: LivePush, Ingest: true, Churn: -0.1},
		{Acquire: LivePush, Ingest: true, Nodes: 2},
		{Acquire: LivePush, Ingest: true, MirrorBytes: 1 << 20},
	}
	for _, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Errorf("%+v accepted", topo)
		}
		if _, err := Provision(&serve.Group{}, topo, Site{}); err == nil {
			t.Errorf("Provision stood %+v up", topo)
		}
	}
}

// group returns a serve group shut down with the test.
func group(t *testing.T) *serve.Group {
	g := &serve.Group{}
	t.Cleanup(func() {
		if err := g.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return g
}

// oneImage fills a registry with a single public image whose layer is a
// real gzipped tar (the dedup store decomposes it, the live index walks
// it).
func oneImage(t *testing.T, img *image) func(*registry.Registry) error {
	return func(reg *registry.Registry) error {
		var layer bytes.Buffer
		b := tarutil.NewGzipBuilder(&layer)
		for _, f := range []string{"app/a.txt", "app/b.txt"} {
			if err := b.File(f, blobOfSize(1, 4<<10)); err != nil {
				return err
			}
		}
		if err := b.Close(); err != nil {
			return err
		}
		*img = pushImage(t, reg, "user/app", layer.Bytes(), false)
		return nil
	}
}

func pull(t *testing.T, c *registry.Client, img image) {
	t.Helper()
	if _, d, err := c.ManifestRawContext(context.Background(), img.repo, "latest"); err != nil || d != img.manifest {
		t.Fatalf("manifest via %s: digest %s err %v", c.Base, d, err)
	}
	body, err := blobVerified(c, img.repo, img.layerD)
	if err != nil || !bytes.Equal(body, img.layer) {
		t.Fatalf("blob via %s: %d bytes, err %v", c.Base, len(body), err)
	}
}

// TestProvisionInFrontOfOthers: hubregistry's -origin and -nodes shape —
// the registries behind the front tier are reached by URL only, and Storage,
// Ingest or content of our own make no sense there.
func TestProvisionInFrontOfOthers(t *testing.T) {
	g := group(t)
	var img image
	var replicas []string
	for i := 0; i < 2; i++ {
		full, err := Provision(g, Topology{}, Site{Fill: oneImage(t, &img)})
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, full.URL)
	}

	mir, err := Provision(g, Topology{MirrorBytes: 1 << 20}, Site{Origin: replicas[0]})
	if err != nil {
		t.Fatal(err)
	}
	pull(t, mir.Client, img)
	pull(t, mir.Client, img)
	if st := mir.Stats(); mir.Origin != nil || st.Mirror.Hits == 0 {
		t.Fatalf("mirror-only stack stats: %+v", st)
	}

	router, err := Provision(g, Topology{Nodes: 2, MirrorBytes: 1 << 20}, Site{NodeURLs: replicas})
	if err != nil {
		t.Fatal(err)
	}
	pull(t, router.Client, img)
	if st := router.Stats(); st.Router.Misses == 0 || st.Mirror.Misses == 0 || len(st.Nodes) != 0 {
		t.Fatalf("router-only stack stats: %+v", st)
	}

	for _, c := range []struct {
		topo Topology
		site Site
	}{
		{Topology{}, Site{Origin: replicas[0]}},                                        // nothing to stand up
		{Topology{MirrorBytes: 1, Nodes: 2}, Site{Origin: replicas[0]}},                // nodes behind an origin
		{Topology{MirrorBytes: 1, Storage: Dedup}, Site{Origin: replicas[0]}},          // not our store
		{Topology{MirrorBytes: 1}, Site{Origin: replicas[0], Fill: oneImage(t, &img)}}, // not our content
		{Topology{Nodes: 3}, Site{NodeURLs: replicas}},                                 // count mismatch
		{Topology{Nodes: 2, Ingest: true}, Site{NodeURLs: replicas}},                   // not our write path
		{Topology{MirrorBytes: 1}, Site{Origin: "http://127.0.0.1:1"}},                 // unreachable
	} {
		if _, err := Provision(g, c.topo, c.site); err == nil {
			t.Errorf("Provision(%+v, %+v) succeeded", c.topo, c.site)
		}
	}
}

// TestProvisionOverExistingContent is hubregistry's -data shape: the site
// brings a store that already holds the blobs. A plain registry serves
// from it; a dedup registry takes every blob into its pool; with Ingest
// the tag registrations in Fill backfill the live index.
func TestProvisionOverExistingContent(t *testing.T) {
	content := blobstore.NewMemory()
	var img image
	if _, err := Provision(group(t), Topology{}, Site{Store: content, Fill: oneImage(t, &img)}); err != nil {
		t.Fatal(err)
	}
	retag := func(reg *registry.Registry) error {
		reg.CreateRepo(img.repo, false)
		return reg.SetTag(img.repo, "latest", img.manifest)
	}
	for _, storage := range []Storage{Plain, Dedup} {
		s, err := Provision(group(t), Topology{Storage: storage, Ingest: true}, Site{Store: content, Fill: retag})
		if err != nil {
			t.Fatal(err)
		}
		pull(t, s.Client, img)
		st := s.Stats().Origin
		if (storage == Dedup) != (s.Origin.Dedup != nil) || (storage == Dedup) != (st.Dedup.Layers > 0) {
			t.Fatalf("storage %d: dedup stats %+v", storage, st.Dedup)
		}
		if storage == Dedup && s.Origin.Dedup.Len() != content.Len() {
			t.Fatalf("dedup backend took in %d of %d blobs", s.Origin.Dedup.Len(), content.Len())
		}
		if st.Ingest.FallbackWalks != 1 || st.Ingest.SkippedLayers != 0 {
			t.Fatalf("storage %d: startup backfill %+v, want the one layer walked from the store", storage, st.Ingest)
		}
		resp, err := http.Get(s.URL + "/analytics/summary")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /analytics/summary beside /v2/: %d", resp.StatusCode)
		}
	}
}
