package trafficsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/analytics"
	"repro/internal/blobstore"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/digest"
	"repro/internal/hubapi"
	"repro/internal/manifest"
	"repro/internal/mirror"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/synth"
)

// PullStorm is the Zipf-skewed pull storm: the popularity-weighted trace
// (heavy skew, a few hot images taking most pulls — the paper's §IV-B
// shape) replayed against a sharded registry cluster behind its router.
// NodeBandwidth paces each node's egress so capacity is a configuration,
// not an artifact of the host CPU — overload rates stay meaningful across
// machines.
type PullStorm struct {
	// Nodes and Replicas size the cluster (defaults 2 and 2).
	Nodes, Replicas int
	// NodeBandwidth paces each node's egress in bytes/s (0 = unpaced).
	NodeBandwidth int64
}

// Name implements Scenario.
func (s *PullStorm) Name() string { return "pull-storm" }

// Setup implements Scenario.
func (s *PullStorm) Setup(ctx context.Context, g *serve.Group, env *Env) (func(i int) Op, error) {
	pop, err := newPopulation(env)
	if err != nil {
		return nil, err
	}
	_, client, err := launchCluster(g, pop, s.Nodes, s.Replicas, s.NodeBandwidth)
	if err != nil {
		return nil, err
	}
	return tracePulls(env, pop.names, pop.weights, client, 0)
}

// launchCluster mounts an n-node cluster (2 when nodes <= 0) seeded with
// the population and returns it with a client on its router. The router
// cache is pinned to coalescing-only so runs measure the nodes, not the
// router's memory.
func launchCluster(g *serve.Group, pop *population, nodes, replicas int, nodeBW int64) (*cluster.Cluster, *registry.Client, error) {
	if nodes <= 0 {
		nodes = 2
	}
	c, err := cluster.Launch(g, cluster.Config{
		Nodes:         nodes,
		Replicas:      replicas,
		NodeBandwidth: nodeBW,
		CacheBytes:    -1,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := c.Seed(pop.reg, pop.repos); err != nil {
		return nil, nil, err
	}
	return c, &registry.Client{Base: c.RouterURL(), HTTP: c.RouterClient()}, nil
}

// tracePulls is the op source the pull-only scenarios share: request i
// pulls the repository the popularity-weighted trace picks for it,
// reading blobs at readBPS bytes/s (0 = unthrottled).
func tracePulls(env *Env, names []string, weights []int64, client *registry.Client, readBPS int64) (func(i int) Op, error) {
	trace, err := env.trace(weights)
	if err != nil {
		return nil, err
	}
	clk := env.clock()
	return func(i int) Op {
		repo := names[trace[i]]
		return func(ctx context.Context) (int64, error) {
			return pullImage(ctx, client, clk, repo, readBPS)
		}
	}, nil
}

// MixedPushPull drives a read/write mix against one registry whose write
// path feeds the always-on analytics ingest tee: pulls follow the Zipf
// trace while a fraction of arrivals push fresh images (new layer blob,
// config, manifest) — the update traffic that invalidates nothing for
// pullers but costs the tee its walk.
type MixedPushPull struct {
	// PushFraction is the share of arrivals that are pushes (default 0.2).
	PushFraction float64
	// LiveAnalytics hooks the ingest tee onto the write path (default
	// true via NewMixedPushPull; zero value means plain).
	LiveAnalytics bool
}

// Name implements Scenario.
func (s *MixedPushPull) Name() string { return "mixed" }

// pushJob is one pre-rendered image upload.
type pushJob struct {
	repo   string
	layer  []byte
	layerD digest.Digest
	cfg    []byte
	cfgD   digest.Digest
	m      *manifest.Manifest
}

// Setup implements Scenario.
func (s *MixedPushPull) Setup(ctx context.Context, g *serve.Group, env *Env) (func(i int) Op, error) {
	frac := s.PushFraction
	if frac <= 0 {
		frac = 0.2
	}
	pop, err := newPopulation(env)
	if err != nil {
		return nil, err
	}

	// Fresh push payloads: layers rendered from a sibling dataset at a
	// different seed, so the bytes are valid gzipped layer tars (the
	// ingest tee walks them) with digests the registry has never seen.
	nPush := int(frac * float64(env.Requests))
	if nPush < 1 {
		nPush = 1
	}
	jobs, pushRepos, err := renderPushJobs(env, nPush)
	if err != nil {
		return nil, err
	}
	for _, r := range pushRepos {
		pop.reg.CreateRepo(r.Name, false)
	}
	if s.LiveAnalytics {
		live := analytics.New(pop.reg.Blobs(), append(append([]manifest.Repository(nil), pop.repos...), pushRepos...))
		pop.reg.SetIngest(live)
	}

	srv := &serve.Server{Name: "registry", Handler: pop.reg}
	if err := g.Start(srv); err != nil {
		return nil, err
	}
	client := clientFor(srv)
	client.Token = "trafficsim"

	trace, err := env.trace(pop.weights)
	if err != nil {
		return nil, err
	}
	// Pre-commit the push/pull interleave: exactly nPush pushes spread
	// uniformly over the run by a seeded stream.
	mixRNG := env.rng(seedMix)
	isPush := make([]bool, env.Requests)
	for _, k := range mixRNG.Perm(env.Requests)[:nPush] {
		isPush[k] = true
	}
	pushIdx := make([]int, env.Requests)
	next := 0
	for i := range isPush {
		if isPush[i] {
			pushIdx[i] = next
			next++
		}
	}

	clk := env.clock()
	return func(i int) Op {
		if isPush[i] {
			job := jobs[pushIdx[i]]
			return func(ctx context.Context) (int64, error) {
				if _, err := client.PushBlobContext(ctx, job.repo, job.layer); err != nil {
					return 0, err
				}
				if _, err := client.PushBlobContext(ctx, job.repo, job.cfg); err != nil {
					return int64(len(job.layer)), err
				}
				if _, err := client.PushManifestContext(ctx, job.repo, "latest", job.m); err != nil {
					return int64(len(job.layer) + len(job.cfg)), err
				}
				return int64(len(job.layer) + len(job.cfg)), nil
			}
		}
		repo := pop.names[trace[i]]
		return func(ctx context.Context) (int64, error) {
			return pullImage(ctx, client, clk, repo, 0)
		}
	}, nil
}

// renderPushJobs renders n fresh single-layer images under sim/push-*
// repositories. Layer content comes from a payload dataset generated at a
// seed offset, cycled when n exceeds its layer count.
func renderPushJobs(env *Env, n int) ([]pushJob, []manifest.Repository, error) {
	spec := synth.MaterializeSpec(env.Scale)
	spec.Seed = env.Seed + seedPayload
	ds, err := synth.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	if len(ds.Layers) == 0 {
		return nil, nil, fmt.Errorf("trafficsim: payload dataset has no layers at scale %g", env.Scale)
	}
	jobs := make([]pushJob, n)
	repos := make([]manifest.Repository, n)
	for k := 0; k < n; k++ {
		layer, err := synth.RenderLayer(ds, synth.LayerID(k%len(ds.Layers)))
		if err != nil {
			return nil, nil, err
		}
		cfg, err := json.Marshal(manifest.Config{
			Architecture: "amd64",
			OS:           "linux",
			Created:      fmt.Sprintf("2019-03-%02dT00:00:00Z", 1+k%28),
		})
		if err != nil {
			return nil, nil, err
		}
		j := pushJob{
			repo:   fmt.Sprintf("sim/push-%04d", k),
			layer:  layer,
			layerD: digest.FromBytes(layer),
			cfg:    cfg,
			cfgD:   digest.FromBytes(cfg),
		}
		j.m, err = manifest.New(manifest.Descriptor{
			MediaType: manifest.MediaTypeConfig,
			Size:      int64(len(cfg)),
			Digest:    j.cfgD,
		}, []manifest.Descriptor{{
			MediaType: manifest.MediaTypeLayer,
			Size:      int64(len(layer)),
			Digest:    j.layerD,
		}})
		if err != nil {
			return nil, nil, err
		}
		jobs[k] = j
		repos[k] = manifest.Repository{Name: j.repo}
	}
	return jobs, repos, nil
}

// FlashCrowd is the thundering herd on a freshly pushed tag: a new image
// lands in the origin just before the run, and the bulk of arrivals pull
// that one tag through a cold pull-through mirror while a background
// Zipf trickle continues. The mirror's singleflight miss-fill is what
// stands between the herd and the origin.
type FlashCrowd struct {
	// HerdFraction is the share of arrivals pulling the fresh tag
	// (default 0.75).
	HerdFraction float64
	// HotLayers is the fresh image's layer count (default 3).
	HotLayers int
	// CacheBytes budgets the mirror cache (default 256 MiB).
	CacheBytes int64
}

// Name implements Scenario.
func (s *FlashCrowd) Name() string { return "flash-crowd" }

// Setup implements Scenario.
func (s *FlashCrowd) Setup(ctx context.Context, g *serve.Group, env *Env) (func(i int) Op, error) {
	herd := s.HerdFraction
	if herd <= 0 {
		herd = 0.75
	}
	hotLayers := s.HotLayers
	if hotLayers <= 0 {
		hotLayers = 3
	}
	budget := s.CacheBytes
	if budget <= 0 {
		budget = 256 << 20
	}

	pop, err := newPopulation(env)
	if err != nil {
		return nil, err
	}
	// The freshly pushed image: layers the origin (and therefore the
	// mirror) has never served, registered under a brand-new tag moments
	// before the herd arrives.
	const hotRepo = "hot/new"
	if err := pushHotImage(pop, env, hotRepo, hotLayers); err != nil {
		return nil, err
	}

	origin := &serve.Server{Name: "origin", Handler: pop.reg}
	if err := g.Start(origin); err != nil {
		return nil, err
	}
	mir := &serve.Server{
		Name:    "mirror",
		Handler: mirror.New(clientFor(origin), cache.New(blobstore.NewMemory(), budget)),
	}
	if err := g.Start(mir); err != nil {
		return nil, err
	}
	client := clientFor(mir)

	trace, err := env.trace(pop.weights)
	if err != nil {
		return nil, err
	}
	herdRNG := env.rng(seedMix)
	inHerd := make([]bool, env.Requests)
	for i := range inHerd {
		inHerd[i] = herdRNG.Float64() < herd
	}

	clk := env.clock()
	return func(i int) Op {
		repo := pop.names[trace[i]]
		if inHerd[i] {
			repo = hotRepo
		}
		return func(ctx context.Context) (int64, error) {
			return pullImage(ctx, client, clk, repo, 0)
		}
	}, nil
}

// pushHotImage registers a fresh image (layers from the payload dataset)
// in the origin registry under repo:latest.
func pushHotImage(pop *population, env *Env, repo string, layers int) error {
	spec := synth.MaterializeSpec(env.Scale)
	spec.Seed = env.Seed + seedPayload
	ds, err := synth.Generate(spec)
	if err != nil {
		return err
	}
	if len(ds.Layers) < layers {
		layers = len(ds.Layers)
	}
	if layers == 0 {
		return fmt.Errorf("trafficsim: payload dataset has no layers at scale %g", env.Scale)
	}
	descs := make([]manifest.Descriptor, layers)
	for j := 0; j < layers; j++ {
		blob, err := synth.RenderLayer(ds, synth.LayerID(j))
		if err != nil {
			return err
		}
		d, err := pop.reg.PushBlob(blob)
		if err != nil {
			return err
		}
		descs[j] = manifest.Descriptor{
			MediaType: manifest.MediaTypeLayer,
			Size:      int64(len(blob)),
			Digest:    d,
		}
	}
	cfg, err := json.Marshal(manifest.Config{Architecture: "amd64", OS: "linux", Created: "2019-03-01T00:00:00Z"})
	if err != nil {
		return err
	}
	cfgD, err := pop.reg.PushBlob(cfg)
	if err != nil {
		return err
	}
	m, err := manifest.New(manifest.Descriptor{
		MediaType: manifest.MediaTypeConfig,
		Size:      int64(len(cfg)),
		Digest:    cfgD,
	}, descs)
	if err != nil {
		return err
	}
	pop.reg.CreateRepo(repo, false)
	_, err = pop.reg.PushManifest(repo, "latest", m)
	return err
}

// SlowClients is the stream-holding workload: every pull drains its blob
// bodies at a trickle, so the server carries many long-lived open
// responses — the connection-table and drain stress that fast-client
// benchmarks never produce. Backed by a cluster when Nodes > 1 (the
// drain-under-load e2e uses that) or a single registry otherwise.
type SlowClients struct {
	// Nodes and Replicas size the backing cluster; Nodes <= 1 serves one
	// registry directly.
	Nodes, Replicas int
	// ReadBytesPerS throttles each client's blob reads (default 128 KiB/s).
	ReadBytesPerS int64

	// Cluster is the backing cluster after Setup when Nodes > 1 (the
	// drain e2e reaches in to drain a member mid-run).
	Cluster *cluster.Cluster
}

// Name implements Scenario.
func (s *SlowClients) Name() string { return "slow-clients" }

// Setup implements Scenario.
func (s *SlowClients) Setup(ctx context.Context, g *serve.Group, env *Env) (func(i int) Op, error) {
	bps := s.ReadBytesPerS
	if bps <= 0 {
		bps = 128 << 10
	}
	pop, err := newPopulation(env)
	if err != nil {
		return nil, err
	}
	var client *registry.Client
	if s.Nodes > 1 {
		if s.Cluster, client, err = launchCluster(g, pop, s.Nodes, s.Replicas, 0); err != nil {
			return nil, err
		}
	} else {
		srv := &serve.Server{Name: "registry", Handler: pop.reg}
		if err := g.Start(srv); err != nil {
			return nil, err
		}
		client = clientFor(srv)
	}
	return tracePulls(env, pop.names, pop.weights, client, bps)
}

// Hierarchy is the two-level mirror tree: clients pull from edge mirrors,
// edges fill from a shared regional mirror, the regional fills from the
// origin — the geographic cache topology the paper's skew numbers argue
// for. Edge caches are deliberately small next to the regional one, so
// the Zipf head lives at the edge and the tail churns through the
// regional tier.
type Hierarchy struct {
	// Edges is the edge mirror count requests round-robin over (default 2).
	Edges int
	// EdgeCacheBytes budgets each edge cache (default 16 MiB).
	EdgeCacheBytes int64
	// RegionalCacheBytes budgets the regional cache (default 256 MiB).
	RegionalCacheBytes int64
}

// Name implements Scenario.
func (s *Hierarchy) Name() string { return "hierarchy" }

// Setup implements Scenario.
func (s *Hierarchy) Setup(ctx context.Context, g *serve.Group, env *Env) (func(i int) Op, error) {
	edges := s.Edges
	if edges <= 0 {
		edges = 2
	}
	edgeBudget := s.EdgeCacheBytes
	if edgeBudget <= 0 {
		edgeBudget = 16 << 20
	}
	regionalBudget := s.RegionalCacheBytes
	if regionalBudget <= 0 {
		regionalBudget = 256 << 20
	}

	pop, err := newPopulation(env)
	if err != nil {
		return nil, err
	}
	origin := &serve.Server{Name: "origin", Handler: pop.reg}
	if err := g.Start(origin); err != nil {
		return nil, err
	}
	regional := &serve.Server{
		Name:    "regional",
		Handler: mirror.New(clientFor(origin), cache.New(blobstore.NewMemory(), regionalBudget)),
	}
	if err := g.Start(regional); err != nil {
		return nil, err
	}
	clients := make([]*registry.Client, edges)
	for e := 0; e < edges; e++ {
		edge := &serve.Server{
			Name:    fmt.Sprintf("edge%d", e),
			Handler: mirror.New(clientFor(regional), cache.New(blobstore.NewMemory(), edgeBudget)),
		}
		if err := g.Start(edge); err != nil {
			return nil, err
		}
		clients[e] = clientFor(edge)
	}

	trace, err := env.trace(pop.weights)
	if err != nil {
		return nil, err
	}
	clk := env.clock()
	return func(i int) Op {
		repo := pop.names[trace[i]]
		client := clients[i%len(clients)]
		return func(ctx context.Context) (int64, error) {
			return pullImage(ctx, client, clk, repo, 0)
		}
	}, nil
}

// Replay drives the popularity trace at a deployment that is already
// running — a registry, a pull-through mirror in front of one, or a
// cluster router: anything that serves the Registry v2 pull API at
// Registry. It is the one scenario that provisions nothing; Env.Scale is
// unused because the population is whatever the deployment's Hub search
// API lists.
type Replay struct {
	// Registry is the base URL pulls are sent to.
	Registry string
	// Search is the Hub search API base URL (hubregistry -search-addr)
	// the repository names and pull-count weights come from.
	Search string
}

// Name implements Scenario.
func (s *Replay) Name() string { return "replay" }

// Setup implements Scenario. It mounts nothing on g.
func (s *Replay) Setup(ctx context.Context, g *serve.Group, env *Env) (func(i int) Op, error) {
	client := &registry.Client{Base: s.Registry}
	names, weights, err := s.pullable(ctx, client)
	if err != nil {
		return nil, err
	}
	return tracePulls(env, names, weights, client, 0)
}

// pullable pages the search API for every repository and its pull count
// (the index repeats entries; the first occurrence wins) and keeps those
// whose latest manifest resolves through client — the filter
// newPopulation applies in-process, so every traced request must
// succeed. Names come back sorted: the trace depends only on the
// population, not on the index's page order.
func (s *Replay) pullable(ctx context.Context, client *registry.Client) ([]string, []int64, error) {
	hub := &hubapi.Client{Base: s.Search}
	var listed []hubapi.Result
	for page := 1; ; page++ {
		p, err := hub.SearchPageContext(ctx, "/", page, hubapi.DefaultPageSize)
		if err != nil {
			return nil, nil, err
		}
		listed = append(listed, p.Results...)
		if p.Next == "" {
			break
		}
	}
	officials, err := hub.OfficialsContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	listed = append(listed, officials...)
	sort.SliceStable(listed, func(a, b int) bool { return listed[a].RepoName < listed[b].RepoName })

	var names []string
	var weights []int64
	for i, r := range listed {
		if i > 0 && listed[i-1].RepoName == r.RepoName {
			continue
		}
		_, _, err := client.ManifestContext(ctx, r.RepoName, "latest")
		if errors.Is(err, registry.ErrNotFound) || errors.Is(err, registry.ErrUnauthorized) {
			continue // untagged or private: a pull could only fail
		}
		if err != nil {
			return nil, nil, fmt.Errorf("probing %s:latest: %w", r.RepoName, err)
		}
		names = append(names, r.RepoName)
		weights = append(weights, max(r.PullCount, 1))
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("no pullable repositories listed at %s resolve at %s", s.Search, s.Registry)
	}
	return names, weights, nil
}
