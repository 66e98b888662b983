package topology

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/serve"
)

// image is one pushed repo:tag with its content handles.
type image struct {
	repo     string
	layer    []byte
	layerD   digest.Digest
	configD  digest.Digest
	manifest digest.Digest
}

// pushImage stores a one-layer image into the source registry.
func pushImage(t *testing.T, reg *registry.Registry, repo string, layer []byte, private bool) image {
	t.Helper()
	config := []byte(fmt.Sprintf(`{"architecture":"amd64","os":"linux","repo":%q}`, repo))
	ld, err := reg.PushBlob(layer)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := reg.PushBlob(config)
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.New(
		manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: int64(len(config)), Digest: cd},
		[]manifest.Descriptor{{MediaType: manifest.MediaTypeLayer, Size: int64(len(layer)), Digest: ld}},
	)
	if err != nil {
		t.Fatal(err)
	}
	reg.CreateRepo(repo, private)
	md, err := reg.PushManifest(repo, "latest", m)
	if err != nil {
		t.Fatal(err)
	}
	return image{repo: repo, layer: layer, layerD: ld, configD: cd, manifest: md}
}

// blobOfSize yields deterministic pseudo-random content.
func blobOfSize(seed, size int) []byte {
	b := make([]byte, size)
	state := uint64(seed)*2654435761 + 1
	for i := range b {
		state = state*6364136223846793005 + 1442695040888963407
		b[i] = byte(state >> 33)
	}
	return b
}

// seededCluster provisions a sharded stack whose origin holds n public
// images plus a private repo and a repo with no latest tag, all placed on
// the nodes.
func seededCluster(t *testing.T, topo Topology, site Site, n int) ([]image, *Stack) {
	t.Helper()
	images := make([]image, n)
	site.Repos = []manifest.Repository{{Name: "corp/secret", Private: true}}
	site.Fill = func(src *registry.Registry) error {
		for i := range images {
			images[i] = pushImage(t, src, fmt.Sprintf("user%d/app", i), blobOfSize(i, 8<<10), false)
		}
		pushImage(t, src, "corp/secret", blobOfSize(999, 4<<10), true)
		src.CreateRepo("user/untagged", false)
		return nil
	}
	var g serve.Group
	t.Cleanup(func() {
		if err := g.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	s, err := Provision(&g, topo, site)
	if err != nil {
		t.Fatal(err)
	}
	return images, s
}

// Seeding must place every blob on exactly R nodes and every tag on the
// R owners of its repository key — no fewer (durability) and no more
// (storage would not shard).
func TestClusterSeedPlacement(t *testing.T) {
	_, c := seededCluster(t, Topology{Nodes: 4, Replicas: 2}, Site{}, 8)
	src := c.Origin.Registry
	for _, d := range src.Blobs().Digests() {
		copies := 0
		for _, n := range c.Nodes {
			if n.Registry.Blobs().Has(d) {
				copies++
			}
		}
		// Tag owners also hold their manifest blob, so a manifest digest
		// may exceed R copies; layers and configs must hit R exactly.
		if copies < 2 {
			t.Errorf("blob %s has %d copies, want >= 2", d.Short(), copies)
		}
	}
	for _, name := range src.Repos() {
		tags, err := src.Tags(name)
		if err != nil {
			t.Fatal(err)
		}
		holders := 0
		for _, n := range c.Nodes {
			if got, err := n.Registry.Tags(name); err == nil && len(got) == len(tags) && len(tags) > 0 {
				holders++
			}
		}
		if len(tags) > 0 && holders != 2 {
			t.Errorf("repo %s tags held by %d nodes, want 2", name, holders)
		}
	}
	// Storage must actually shard: with R=2 of N=4, each node should hold
	// roughly half the bytes, and certainly not all of them.
	total := src.Blobs().TotalBytes()
	for i, n := range c.Nodes {
		if got := n.Registry.Blobs().TotalBytes(); got >= total {
			t.Errorf("node %d holds %d bytes >= full corpus %d — not sharded", i, got, total)
		}
	}
}

// Every byte served through the router must match the source registry
// exactly — manifests verbatim (so digests verify) and blobs verified
// against their digest — and the study's failure taxonomy (401 private,
// 404 missing tag) must classify identically to a single registry.
func TestClusterByteParityAndErrorTaxonomy(t *testing.T) {
	images, c := seededCluster(t, Topology{Nodes: 4, Replicas: 2}, Site{}, 8)
	src, rc := c.Origin.Registry, c.Client
	ctx := context.Background()
	for _, img := range images {
		raw, d, err := rc.ManifestRawContext(ctx, img.repo, "latest")
		if err != nil {
			t.Fatalf("%s: manifest via router: %v", img.repo, err)
		}
		if d != img.manifest {
			t.Fatalf("%s: manifest digest %s, want %s", img.repo, d, img.manifest)
		}
		direct, _, err := src.Blobs().Get(img.manifest)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(raw))
		if _, err := direct.Read(want); err != nil && len(raw) > 0 {
			t.Fatal(err)
		}
		direct.Close()
		if !bytes.Equal(raw, want) {
			t.Fatalf("%s: manifest bytes differ from source", img.repo)
		}
		// By-digest fetch (the cached path) must agree with the by-tag one.
		raw2, _, err := rc.ManifestRawContext(ctx, img.repo, img.manifest.String())
		if err != nil || !bytes.Equal(raw2, raw) {
			t.Fatalf("%s: by-digest manifest mismatch (err=%v)", img.repo, err)
		}
		body, err := blobVerified(rc, img.repo, img.layerD)
		if err != nil {
			t.Fatalf("%s: blob via router: %v", img.repo, err)
		}
		if !bytes.Equal(body, img.layer) {
			t.Fatalf("%s: blob bytes differ from source", img.repo)
		}
	}
	if _, _, err := rc.ManifestRawContext(ctx, "corp/secret", "latest"); !errors.Is(err, registry.ErrUnauthorized) {
		t.Fatalf("private repo: got %v, want ErrUnauthorized", err)
	}
	if _, _, err := rc.ManifestRawContext(ctx, "user/untagged", "latest"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("untagged repo: got %v, want ErrNotFound", err)
	}
	if _, _, err := rc.ManifestRawContext(ctx, "no/such", "latest"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("unknown repo: got %v, want ErrNotFound", err)
	}
}

// Concurrent cold pulls of one blob must coalesce into a single
// inter-node fetch: the router's singleflight cache admits while the
// first client streams and every waiter is served from it.
func TestClusterColdPullsCoalesce(t *testing.T) {
	images, c := seededCluster(t, Topology{Nodes: 4, Replicas: 2}, Site{}, 1)
	img := images[0]
	rc := c.Client

	const pulls = 16
	var wg sync.WaitGroup
	errs := make([]error, pulls)
	for i := 0; i < pulls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := blobVerified(rc, img.repo, img.layerD)
			if err == nil && !bytes.Equal(body, img.layer) {
				err = errors.New("blob bytes differ")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	var nodeGets int64
	for _, s := range st.Nodes {
		nodeGets += s.Registry.BlobGets
	}
	if nodeGets != 1 {
		t.Fatalf("16 concurrent cold pulls caused %d node blob fetches, want 1", nodeGets)
	}
	if cs := st.Router; cs.Misses != 1 {
		t.Fatalf("router cache recorded %d misses, want 1", cs.Misses)
	}
}

// Draining one node while pullers are mid-flight must not fail a single
// request: in-flight responses complete under the drain grace, and every
// subsequent request falls through to the surviving replica.
func TestClusterDrainUnderLoadZeroFailures(t *testing.T) {
	// With 24 images of 8 KiB everything fits the router cache; traffic
	// still reaches the nodes where it matters: the by-tag manifest path
	// always revalidates against a node, exercising fall-through on every
	// pull.
	images, c := seededCluster(t, Topology{Nodes: 3, Replicas: 2}, Site{DrainTimeout: 5 * time.Second}, 24)
	rc := c.Client
	ctx := context.Background()

	const workers = 4
	var failures atomic.Int64
	var pulls atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				img := images[(w+i)%len(images)]
				_, d, err := rc.ManifestRawContext(ctx, img.repo, "latest")
				if err == nil && d != img.manifest {
					err = fmt.Errorf("manifest digest mismatch for %s", img.repo)
				}
				if err == nil {
					_, err = blobVerified(rc, img.repo, img.layerD)
				}
				if err != nil {
					t.Errorf("pull %s during drain: %v", img.repo, err)
					failures.Add(1)
				}
				pulls.Add(1)
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond) // let load build
	if err := c.Nodes[1].Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
	time.Sleep(200 * time.Millisecond) // keep pulling against the drained cluster
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed pulls during drain (of %d)", n, pulls.Load())
	}
	if n := pulls.Load(); n < int64(workers)*2 {
		t.Fatalf("only %d pulls completed — load never materialized", n)
	}
}

// blobVerified reads a whole blob through the verifying stream.
func blobVerified(c *registry.Client, name string, d digest.Digest) ([]byte, error) {
	rc, _, err := c.BlobStreamVerifiedContext(context.Background(), name, d)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}
