package trafficsim

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/hubapi"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/topology"
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
	pop, stack, err := sharded(g, env, s.Nodes, s.Replicas, s.NodeBandwidth)
	if err != nil {
		return nil, err
	}
	return tracePulls(env, pop.names, pop.weights, stack.Client, 0)
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
// path feeds the always-on analytics ingest hook: pulls follow the Zipf
// trace while a fraction of arrivals push fresh images (new layer blob,
// config, manifest) — the update traffic that invalidates nothing for
// pullers but costs the tee its walk.
type MixedPushPull struct {
	// PushFraction is the share of arrivals that are pushes (default 0.2).
	PushFraction float64
}

// Name implements Scenario.
func (s *MixedPushPull) Name() string { return "mixed" }

// pushJob is one pre-rendered image upload.
type pushJob struct {
	repo  string
	layer []byte
	cfg   []byte
	m     *manifest.Manifest
}

// Setup implements Scenario.
func (s *MixedPushPull) Setup(ctx context.Context, g *serve.Group, env *Env) (func(i int) Op, error) {
	frac := s.PushFraction
	if frac <= 0 {
		frac = 0.2
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
	pop, stack, err := provision(g, env, topology.Topology{Ingest: true}, topology.Site{Repos: pushRepos},
		func(reg *registry.Registry) error {
			for _, r := range pushRepos {
				reg.CreateRepo(r.Name, false)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	client := *stack.Client
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
			return pullImage(ctx, &client, clk, repo, 0)
		}
	}, nil
}

// payload generates the sibling dataset fresh pushes take their layers
// from: the population's spec at a seed offset, so the bytes are valid
// gzipped layer tars with digests the population does not hold.
func payload(env *Env) (*synth.Dataset, error) {
	spec := synth.MaterializeSpec(env.Scale)
	spec.Seed = env.Seed + seedPayload
	ds, err := synth.Generate(spec)
	if err == nil && len(ds.Layers) == 0 {
		err = fmt.Errorf("trafficsim: payload dataset has no layers at scale %g", env.Scale)
	}
	return ds, err
}

// renderPushJobs renders n fresh single-layer images under sim/push-*
// repositories. Layer content comes from a payload dataset generated at a
// seed offset, cycled when n exceeds its layer count.
func renderPushJobs(env *Env, n int) ([]pushJob, []manifest.Repository, error) {
	ds, err := payload(env)
	if err != nil {
		return nil, nil, err
	}
	jobs := make([]pushJob, n)
	repos := make([]manifest.Repository, n)
	for k := 0; k < n; k++ {
		layer, err := synth.RenderLayer(ds, synth.LayerID(k%len(ds.Layers)))
		if err != nil {
			return nil, nil, err
		}
		cfg, m, err := synth.BuildImage(fmt.Sprintf("2019-03-%02dT00:00:00Z", 1+k%28),
			[]manifest.Descriptor{synth.LayerDescriptor(layer)})
		if err != nil {
			return nil, nil, err
		}
		j := pushJob{repo: fmt.Sprintf("sim/push-%04d", k), layer: layer, cfg: cfg, m: m}
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

	// The freshly pushed image: layers the origin (and therefore the
	// mirror) has never served, registered under a brand-new tag moments
	// before the herd arrives.
	const hotRepo = "hot/new"
	pop, stack, err := provision(g, env, topology.Topology{MirrorBytes: budget}, topology.Site{},
		func(reg *registry.Registry) error { return pushHotImage(reg, env, hotRepo, hotLayers) })
	if err != nil {
		return nil, err
	}
	client := stack.Client

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
func pushHotImage(reg *registry.Registry, env *Env, repo string, layers int) error {
	ds, err := payload(env)
	if err != nil {
		return err
	}
	layers = min(layers, len(ds.Layers))
	descs := make([]manifest.Descriptor, layers)
	for j := 0; j < layers; j++ {
		blob, err := synth.RenderLayer(ds, synth.LayerID(j))
		if err != nil {
			return err
		}
		if _, err := reg.PushBlob(blob); err != nil {
			return err
		}
		descs[j] = synth.LayerDescriptor(blob)
	}
	cfg, m, err := synth.BuildImage("2019-03-01T00:00:00Z", descs)
	if err != nil {
		return err
	}
	if _, err := reg.PushBlob(cfg); err != nil {
		return err
	}
	reg.CreateRepo(repo, false)
	_, err = reg.PushManifest(repo, "latest", m)
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

	// Stack is what Setup provisioned (the drain e2e reaches in to drain
	// a node mid-run).
	Stack *topology.Stack
}

// Name implements Scenario.
func (s *SlowClients) Name() string { return "slow-clients" }

// Setup implements Scenario.
func (s *SlowClients) Setup(ctx context.Context, g *serve.Group, env *Env) (func(i int) Op, error) {
	bps := s.ReadBytesPerS
	if bps <= 0 {
		bps = 128 << 10
	}
	var pop *population
	var err error
	if s.Nodes > 1 {
		pop, s.Stack, err = sharded(g, env, s.Nodes, s.Replicas, 0)
	} else {
		pop, s.Stack, err = provision(g, env, topology.Topology{}, topology.Site{}, nil)
	}
	if err != nil {
		return nil, err
	}
	return tracePulls(env, pop.names, pop.weights, s.Stack.Client, bps)
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

	// Origin behind the regional mirror is one stack; each edge is a
	// mirror-only stack whose origin is the regional tier's URL.
	pop, regional, err := provision(g, env, topology.Topology{MirrorBytes: regionalBudget}, topology.Site{}, nil)
	if err != nil {
		return nil, err
	}
	clients := make([]*registry.Client, edges)
	for e := range clients {
		edge, err := topology.Provision(g, topology.Topology{MirrorBytes: edgeBudget}, topology.Site{Origin: regional.URL})
		if err != nil {
			return nil, err
		}
		clients[e] = edge.Client
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
