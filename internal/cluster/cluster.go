package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/mirror"
	"repro/internal/registry"
)

// repoKey is the ring key for repository-scoped state (tags, by-tag
// manifest serving). The prefix keeps it from ever colliding with a
// digest key ("sha256:...").
func repoKey(name string) string { return "repo/" + name }

// Seed distributes a filled registry across nodes (keyed by ring member
// ID) by ring ownership:
//
//   - repository metadata (name, privacy) is replicated to every node,
//     because any node may be asked to authorize a blob or manifest GET;
//   - every blob (layers and manifest blobs alike) is copied to the R =
//     replicas ring owners of its digest;
//   - tags land on the R owners of their repository key, together with
//     the manifest blob they point at, so a by-tag manifest GET routed by
//     repository resolves entirely on-node.
func Seed(ring *Ring, replicas int, nodes map[string]*registry.Registry, src *registry.Registry, repos []manifest.Repository) error {
	private := make(map[string]bool, len(repos))
	for i := range repos {
		private[repos[i].Name] = repos[i].Private
	}
	names := src.Repos()
	for _, name := range names {
		for _, n := range nodes {
			n.CreateRepo(name, private[name])
		}
	}

	store := src.Blobs()
	for _, d := range store.Digests() {
		for _, owner := range ring.Owners(d.String(), replicas) {
			if err := copyBlob(store, d, owner, nodes[owner]); err != nil {
				return err
			}
		}
	}

	for _, name := range names {
		tags, err := src.Tags(name)
		if err != nil {
			return err
		}
		owners := ring.Owners(repoKey(name), replicas)
		for _, tag := range tags {
			md, err := src.ResolveTag(name, tag)
			if err != nil {
				return err
			}
			for _, owner := range owners {
				if err := copyBlob(store, md, owner, nodes[owner]); err != nil {
					return err
				}
				if err := nodes[owner].SetTag(name, tag, md); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// copyBlob streams one blob from the source store into owner's registry
// (skipping blobs the owner already holds).
func copyBlob(store blobstore.Store, d digest.Digest, owner string, node *registry.Registry) error {
	dst := node.Blobs()
	if dst.Has(d) {
		return nil
	}
	rc, _, err := store.Get(d)
	if err != nil {
		return fmt.Errorf("cluster: seeding %s: %w", d.Short(), err)
	}
	defer rc.Close()
	if _, err := dst.PutStream(d, rc); err != nil {
		return fmt.Errorf("cluster: seeding %s to %s: %w", d.Short(), owner, err)
	}
	return nil
}

// Fanout is the router's mirror.Origin: it resolves each request's owner
// set on the ring and tries the replicas in rotated order, falling
// through to the next copy on transport errors and throttles. Definitive
// origin answers — not found, unauthorized — are returned immediately:
// every replica would say the same, and the study's failure taxonomy
// (401 private, 404 no-latest) must classify identically to a single
// registry.
type Fanout struct {
	ring     *Ring
	replicas int
	clients  map[string]*registry.Client
	next     atomic.Uint64
}

var _ mirror.Origin = (*Fanout)(nil)

// NewFanout builds a fan-out over the given ring and per-node clients
// (keyed by ring member ID).
func NewFanout(ring *Ring, replicas int, clients map[string]*registry.Client) *Fanout {
	return &Fanout{ring: ring, replicas: replicas, clients: clients}
}

// authoritative reports whether err is a definitive origin answer that
// retrying on another replica cannot change.
func authoritative(err error) bool {
	return errors.Is(err, registry.ErrNotFound) ||
		errors.Is(err, registry.ErrUnauthorized) ||
		errors.Is(err, registry.ErrRangeUnsatisfiable)
}

// fanout tries op against each owner of key, starting at a rotating
// offset so read load spreads across replicas.
func fanout[T any](f *Fanout, key string, op func(c *registry.Client) (T, error)) (T, error) {
	var zero T
	owners := f.ring.Owners(key, f.replicas)
	if len(owners) == 0 {
		return zero, fmt.Errorf("cluster: empty ring: %w", registry.ErrNotFound)
	}
	start := int(f.next.Add(1)-1) % len(owners)
	var lastErr error
	for i := 0; i < len(owners); i++ {
		c := f.clients[owners[(start+i)%len(owners)]]
		v, err := op(c)
		if err == nil {
			return v, nil
		}
		if authoritative(err) {
			return zero, err
		}
		lastErr = err
	}
	return zero, fmt.Errorf("cluster: all %d replicas failed: %w", len(owners), lastErr)
}

// TagsContext lists tags from a replica of the repository's owner set.
func (f *Fanout) TagsContext(ctx context.Context, name string) ([]string, error) {
	return fanout(f, repoKey(name), func(c *registry.Client) ([]string, error) {
		return c.TagsContext(ctx, name)
	})
}

type rawManifest struct {
	raw []byte
	d   digest.Digest
}

// ManifestRawContext fetches a manifest: by-digest requests route on the
// digest's owners, by-tag requests on the repository's owners (only those
// nodes hold the tag).
func (f *Fanout) ManifestRawContext(ctx context.Context, name, ref string) ([]byte, digest.Digest, error) {
	key := repoKey(name)
	if d, err := digest.Parse(ref); err == nil {
		key = d.String()
	}
	m, err := fanout(f, key, func(c *registry.Client) (rawManifest, error) {
		raw, d, err := c.ManifestRawContext(ctx, name, ref)
		return rawManifest{raw, d}, err
	})
	if err != nil {
		return nil, "", err
	}
	return m.raw, m.d, nil
}

type blobStream struct {
	rc   io.ReadCloser
	size int64
}

// BlobContext opens a blob from a replica of the digest's owner set.
func (f *Fanout) BlobContext(ctx context.Context, name string, d digest.Digest) (io.ReadCloser, int64, error) {
	s, err := fanout(f, d.String(), func(c *registry.Client) (blobStream, error) {
		rc, size, err := c.BlobContext(ctx, name, d)
		return blobStream{rc, size}, err
	})
	if err != nil {
		return nil, 0, err
	}
	return s.rc, s.size, nil
}

// BlobStatContext stats a blob on a replica of the digest's owner set.
func (f *Fanout) BlobStatContext(ctx context.Context, name string, d digest.Digest) (int64, error) {
	return fanout(f, d.String(), func(c *registry.Client) (int64, error) {
		return c.BlobStatContext(ctx, name, d)
	})
}
