// Package topology is the one place a registry endpoint is assembled.
//
// The paper's method is a single crawl → download → analyze pass over a
// registry, and its design suggestions (caching for the pull skew,
// file-level dedup under the store) are evaluated by swapping what sits
// under and in front of that registry. Topology names those choices —
// storage backend × ingest hook × front tier × how a study acquires its
// bytes — and Provision turns one into a running stack on the serve
// chassis. The study, every trafficsim scenario, the hubregistry main and
// the examples all stand their registries up here, so a combination
// either works everywhere or is rejected by Validate.
package topology

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/analytics"
	"repro/internal/blobstore"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dedupstore"
	"repro/internal/httpx"
	"repro/internal/manifest"
	"repro/internal/mirror"
	"repro/internal/registry"
	"repro/internal/serve"
)

// Storage is what sits under a registry.
type Storage int

const (
	// Plain keeps every blob verbatim (blobstore.Memory or the caller's
	// Site.Store).
	Plain Storage = iota
	// Dedup decomposes layers into a shared content-addressed file pool
	// on the way in and reconstructs them bit-identically on every pull
	// (internal/dedupstore).
	Dedup
)

// Acquire is how a study obtains the bytes it analyzes from the endpoint.
// Stacks stood up for outside clients (hubregistry, trafficsim) leave it
// zero.
type Acquire int

const (
	// Pull crawls the search API and pulls every image from the registry,
	// walking each layer while it streams off the wire — the paper's §III
	// pipeline.
	Pull Acquire = iota
	// LivePush pushes every image over HTTP into the registry and renders
	// the figures from the live index its Ingest hook maintains — no
	// batch pass at all.
	LivePush
)

// DefaultReplicas is the replication factor of a sharded stack when
// Topology.Replicas is 0: two copies of everything, the minimum that lets
// one node drain with zero failed requests.
const DefaultReplicas = 2

// DefaultRouterCacheBytes is the router's coalescing-cache budget when
// Site.RouterCacheBytes is 0. The cache exists mainly for singleflight —
// one inter-node fetch per concurrently-requested blob — so it is
// deliberately small next to a real working set.
const DefaultRouterCacheBytes = 64 << 20

// reconCacheBytes budgets a dedup backend's reconstruction cache.
const reconCacheBytes = 32 << 20

// Topology is the shape of a registry endpoint. The zero value is one
// plain registry served directly and pulled.
type Topology struct {
	// Acquire selects the study's acquisition path.
	Acquire Acquire
	// Churn, with LivePush, deletes and re-pushes this fraction of the
	// tagged population before reporting; the figures must not move.
	Churn float64
	// Storage selects the backend under every registry of the stack.
	Storage Storage
	// Ingest hooks the always-on analytics service onto every registry's
	// write path and serves its query API under /analytics/ beside /v2/.
	Ingest bool
	// Nodes, when positive, shards the content across that many registry
	// nodes behind a consistent-hash router; Storage and Ingest then
	// apply to each node.
	Nodes int
	// Replicas is the copies kept of each blob and tag across Nodes
	// (DefaultReplicas when 0, capped at Nodes).
	Replicas int
	// MirrorBytes, when positive, puts a pull-through caching mirror with
	// that byte budget in front (of the registry, or of the router).
	MirrorBytes int64
	// MirrorWarm has a study pull everything through the mirror once
	// before the measured download.
	MirrorWarm bool
}

// Validate rejects the combinations that cannot work. It is the only
// place such rules live: Provision and the study both call it.
func (t Topology) Validate() error {
	switch {
	case t.Nodes < 0 || t.Replicas < 0 || t.MirrorBytes < 0:
		return errors.New("topology: Nodes, Replicas and MirrorBytes must not be negative")
	case t.Replicas > 0 && t.Nodes == 0:
		return errors.New("topology: Replicas needs Nodes")
	case t.MirrorWarm && t.MirrorBytes == 0:
		return errors.New("topology: MirrorWarm needs a MirrorBytes budget")
	case t.Churn < 0 || t.Churn > 1:
		return errors.New("topology: Churn must be in [0, 1]")
	case t.Churn != 0 && t.Acquire != LivePush:
		return errors.New("topology: Churn needs Acquire LivePush")
	case t.Acquire == LivePush && !t.Ingest:
		return errors.New("topology: LivePush reports from the live index and needs Ingest")
	case t.Acquire == LivePush && (t.Nodes > 0 || t.MirrorBytes > 0):
		return errors.New("topology: LivePush needs a direct front (mirror and router serve pulls only)")
	}
	return nil
}

// Site is everything about one deployment that is not its shape:
// addresses, stores, somebody else's registries, and the content. The
// zero value is an empty in-memory stack on loopback ephemeral ports.
type Site struct {
	// Addr is the listen address of the endpoint clients talk to; inner
	// tiers always listen on loopback ephemeral ports, as Addr "" does.
	Addr string
	// MaxInFlight and DrainTimeout apply to every mounted server
	// (serve.Server semantics).
	MaxInFlight  int
	DrainTimeout time.Duration

	// Store is the origin's blob store, possibly already holding content
	// (memory when nil). A Dedup origin takes every blob of it into Pool
	// (memory when nil) instead of serving from it. Nodes are always in
	// memory.
	Store blobstore.Store
	Pool  *dedupstore.Pool
	// CacheStore holds the mirror cache's bodies (memory when nil).
	CacheStore blobstore.Store

	// Origin is the base URL of a registry somebody else runs; the stack
	// is then only the mirror in front of it. NodeURLs are Topology.Nodes
	// registries somebody else runs, already holding the content the ring
	// places on them; the stack is then only the router (and mirror) in
	// front of them.
	Origin   string
	NodeURLs []string

	// RouterCacheBytes budgets the router's coalescing cache
	// (DefaultRouterCacheBytes when 0). Negative disables admission —
	// concurrent identical fetches still coalesce, but every pull streams
	// from a node — so load runs measure the nodes, not the router's
	// memory.
	RouterCacheBytes int64
	// NodeBandwidth, when positive, paces each node's response writes to
	// this many bytes/second — a stand-in for per-machine egress, so
	// aggregate pull throughput scales with node count on one host.
	NodeBandwidth int64

	// Repos is the repository metadata: the live index reports over it
	// and node seeding takes each repository's privacy from it.
	Repos []manifest.Repository
	// Fill loads the content into the origin registry. It runs after the
	// ingest hook is installed (so administrative tag registrations
	// backfill the live index) and before the content is placed on nodes.
	Fill func(origin *registry.Registry) error
}

// Backend is one provisioned registry with what Topology put under and
// beside it.
type Backend struct {
	// URL is empty for the unserved staging origin of a sharded stack.
	URL      string
	Registry *registry.Registry
	Dedup    *dedupstore.Store // nil on Plain storage
	Live     *analytics.Live   // nil without Ingest

	srv *serve.Server
}

// Drain gracefully shuts the backend's server down; a router in front
// falls through to the replicas. The ring is left unchanged — drained,
// not decommissioned.
func (b *Backend) Drain(ctx context.Context) error { return b.srv.Shutdown(ctx) }

// BackendStats is one registry's counters (zero for a part it lacks).
type BackendStats struct {
	URL      string
	Registry registry.Stats
	Dedup    dedupstore.Stats
	Ingest   analytics.IngestStats
}

// Stats snapshots the backend's counters.
func (b *Backend) Stats() BackendStats {
	st := BackendStats{URL: b.URL, Registry: b.Registry.Stats()}
	if b.Dedup != nil {
		st.Dedup = b.Dedup.Stats()
	}
	if b.Live != nil {
		st.Ingest = b.Live.Stats()
	}
	return st
}

// Stack is a provisioned topology: the endpoint and a handle on every
// part behind it (nil for a part the topology lacks). Teardown is the
// caller's one Shutdown of the group.
type Stack struct {
	// URL is the endpoint clients talk to and Client a registry client on
	// it (copy it to set a Token).
	URL    string
	Client *registry.Client
	// Origin is the registry Site.Fill loaded: the one served in an
	// unsharded stack, the staging source in a sharded one; nil when the
	// content lives in somebody else's registries.
	Origin *Backend
	// Nodes are the shard registries, Router and Mirror the front tiers'
	// caches.
	Nodes          []*Backend
	Router, Mirror *cache.Cache
}

// Stats is the one view over every counter in a stack; a part the stack
// lacks reads zero.
type Stats struct {
	Origin         BackendStats
	Nodes          []BackendStats
	Router, Mirror cache.Stats
}

// Stats snapshots the stack.
func (s *Stack) Stats() Stats {
	var st Stats
	if s.Origin != nil {
		st.Origin = s.Origin.Stats()
	}
	for _, n := range s.Nodes {
		st.Nodes = append(st.Nodes, n.Stats())
	}
	if s.Router != nil {
		st.Router = s.Router.Stats()
	}
	if s.Mirror != nil {
		st.Mirror = s.Mirror.Stats()
	}
	return st
}

// Provision stands the topology up on g and returns once every tier is
// serving and the content is in place.
func Provision(g *serve.Group, t Topology, site Site) (*Stack, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	ours := site.Origin == "" && site.NodeURLs == nil
	switch {
	case !ours && (t.Storage != Plain || t.Ingest || site.Fill != nil || site.Store != nil):
		return nil, errors.New("topology: Storage, Ingest and content need a registry of our own, not Site.Origin or Site.NodeURLs")
	case site.Origin != "" && (t.Nodes > 0 || site.NodeURLs != nil || t.MirrorBytes == 0):
		return nil, errors.New("topology: the one tier in front of Site.Origin is a mirror (MirrorBytes, no Nodes)")
	case site.NodeURLs != nil && t.Nodes != len(site.NodeURLs):
		return nil, fmt.Errorf("topology: Nodes is %d but Site.NodeURLs lists %d", t.Nodes, len(site.NodeURLs))
	}
	p := &provisioner{g: g, site: site}
	if !ours {
		p.upstream = &http.Client{Transport: httpx.NewTransport()}
	}
	s := &Stack{}

	// Behind the front: our registry, or somebody else's. front is the
	// outermost tier mounted so far, behind what the next one reads from.
	var front *serve.Server
	var behind mirror.Origin
	if site.Origin != "" {
		c, err := p.theirs(site.Origin)
		if err != nil {
			return nil, err
		}
		behind = c
	}
	if ours {
		backend := t
		if t.Nodes > 0 {
			// The origin only stages content for the nodes; the storage
			// backend and the hook go where the traffic does.
			backend = Topology{}
		}
		var err error
		if s.Origin, err = newBackend(backend, site.Repos, site.Store, site.Pool); err != nil {
			return nil, err
		}
		if site.Fill != nil {
			if err := site.Fill(s.Origin.Registry); err != nil {
				return nil, fmt.Errorf("topology: filling the origin: %w", err)
			}
		}
		if t.Nodes == 0 {
			if front, err = p.serve(s.Origin, "registry", t.MirrorBytes == 0, 0); err != nil {
				return nil, err
			}
		}
	}

	if t.Nodes > 0 {
		clients := make(map[string]*registry.Client, t.Nodes)
		regs := make(map[string]*registry.Registry, t.Nodes)
		for i := 0; i < t.Nodes; i++ {
			if !ours {
				c, err := p.theirs(site.NodeURLs[i])
				if err != nil {
					return nil, err
				}
				clients[c.Base] = c
				continue
			}
			n, err := newBackend(t, site.Repos, nil, nil)
			if err != nil {
				return nil, err
			}
			srv, err := p.serve(n, fmt.Sprintf("node%d", i), false, site.NodeBandwidth)
			if err != nil {
				return nil, err
			}
			s.Nodes = append(s.Nodes, n)
			regs[n.URL] = n.Registry
			// The node's own client: its idle connections go when the node
			// drains, so the router's dial races cannot stall that drain.
			clients[n.URL] = &registry.Client{Base: n.URL, HTTP: srv.Client()}
		}
		ring := cluster.NewRing(cluster.DefaultVirtualNodes)
		for url := range clients {
			ring.Add(url)
		}
		replicas := t.Replicas
		if replicas == 0 {
			replicas = DefaultReplicas
		}
		replicas = min(replicas, t.Nodes)
		budget := site.RouterCacheBytes
		switch {
		case budget == 0:
			budget = DefaultRouterCacheBytes
		case budget < 0:
			// A one-byte budget admits nothing: every blob is larger than
			// the cache, so fills stream through uncached (still coalesced).
			budget = 1
		}
		// The router is a mirror whose origin is the replica fan-out, so
		// concurrent cold pulls of one blob coalesce into a single
		// inter-node fetch.
		s.Router = cache.New(blobstore.NewMemory(), budget)
		var err error
		behind = cluster.NewFanout(ring, replicas, clients)
		if front, err = p.start("router", mirror.New(behind, s.Router), t.MirrorBytes == 0); err != nil {
			return nil, err
		}
		if ours {
			if err := cluster.Seed(ring, replicas, regs, s.Origin.Registry, site.Repos); err != nil {
				return nil, err
			}
		}
	}

	if t.MirrorBytes > 0 {
		if front != nil {
			behind = &registry.Client{Base: front.URL(), HTTP: front.Client()}
		}
		store := site.CacheStore
		if store == nil {
			store = blobstore.NewMemory()
		}
		s.Mirror = cache.New(store, t.MirrorBytes)
		var err error
		if front, err = p.start("mirror", mirror.New(behind, s.Mirror), true); err != nil {
			return nil, err
		}
	}
	s.URL = front.URL()
	s.Client = &registry.Client{Base: s.URL, HTTP: front.Client()}
	return s, nil
}

// provisioner mounts Provision's servers.
type provisioner struct {
	g    *serve.Group
	site Site
	// upstream is the one client on registries somebody else runs (nil
	// when every registry is ours).
	upstream *http.Client
}

// theirs is a client on a registry somebody else runs, which must answer.
func (p *provisioner) theirs(url string) (*registry.Client, error) {
	c := &registry.Client{Base: url, HTTP: p.upstream}
	if err := c.Ping(); err != nil {
		return nil, fmt.Errorf("topology: %s unreachable: %w", url, err)
	}
	return c, nil
}

// start mounts one handler on the group; only the endpoint — the tier
// clients talk to — listens on Site.Addr.
func (p *provisioner) start(name string, h http.Handler, endpoint bool) (*serve.Server, error) {
	srv := &serve.Server{
		Name: name, Handler: h,
		MaxInFlight: p.site.MaxInFlight, DrainTimeout: p.site.DrainTimeout,
	}
	if endpoint {
		srv.Addr = p.site.Addr
	}
	if p.upstream != nil {
		// Nobody tells us when somebody else's registry drains, so a front
		// tier drops its idle upstream connections when it goes itself —
		// which covers a mirror chained onto a tier of the same group.
		srv.OnShutdown(p.upstream.CloseIdleConnections)
	}
	return srv, p.g.Start(srv)
}

// serve mounts a backend: its registry, with the analytics API beside it
// when it has one, its response writes paced to bps bytes/second when
// positive.
func (p *provisioner) serve(b *Backend, name string, endpoint bool, bps int64) (*serve.Server, error) {
	var h http.Handler = b.Registry
	if b.Live != nil {
		mux := http.NewServeMux()
		mux.Handle("/analytics/", b.Live.Handler())
		mux.Handle("/", b.Registry)
		h = mux
	}
	if bps > 0 {
		h = paced(h, newPacer(bps))
	}
	srv, err := p.start(name, h, endpoint)
	if err != nil {
		return nil, err
	}
	b.srv, b.URL = srv, srv.URL()
	return srv, nil
}

// newBackend builds one registry on the topology's storage with its
// ingest hook. content, when set, is an existing blob store: a plain
// registry serves from it, a dedup registry takes it in.
func newBackend(t Topology, repos []manifest.Repository, content blobstore.Store, pool *dedupstore.Pool) (*Backend, error) {
	b := &Backend{}
	store := content
	if store == nil {
		store = blobstore.NewMemory()
	}
	if t.Storage == Dedup {
		if pool == nil {
			pool = dedupstore.NewMemoryPool(0)
		}
		b.Dedup = dedupstore.NewWithConfig(pool, dedupstore.Config{CacheBytes: reconCacheBytes})
		if content != nil {
			if err := reingest(b.Dedup, content); err != nil {
				return nil, fmt.Errorf("topology: re-ingesting into the dedup backend: %w", err)
			}
		}
		store = b.Dedup
	}
	b.Registry = registry.New(store)
	if t.Ingest {
		b.Live = analytics.New(store, repos)
		b.Registry.SetIngest(b.Live)
	}
	return b, nil
}

// reingest decomposes every blob of src into the dedup backend, one blob
// at a time (PutVerified needs the bytes in hand so blobs that do not
// reassemble bit-identically can fall back to verbatim storage).
func reingest(dst *dedupstore.Store, src blobstore.Store) error {
	for _, d := range src.Digests() {
		rc, _, err := src.Get(d)
		if err != nil {
			return err
		}
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return err
		}
		if err := dst.PutVerified(d, b); err != nil {
			return err
		}
	}
	return nil
}
