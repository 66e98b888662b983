package trafficsim

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/manifest"
	"repro/internal/popularity"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/topology"
)

// Env is the shared provisioning environment scenarios build under: one
// synthetic population, one seed discipline, one clock.
type Env struct {
	// Scale sizes the synthetic Hub (synth.MaterializeSpec).
	Scale float64
	// Seed is the base RNG seed; scenarios derive offset streams from it
	// so trace choice, arrival times, and payload content never share a
	// stream.
	Seed int64
	// Requests is the run length scenarios pre-compute traces for.
	Requests int
	// Clock is the time seam throttled readers pace on (SystemClock when
	// nil).
	Clock Clock
}

func (e *Env) clock() Clock {
	if e.Clock == nil {
		return SystemClock
	}
	return e.Clock
}

// rng derives a deterministic stream from the env seed, mirroring the
// engine package's seed-plus-offset convention.
func (e *Env) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(e.Seed + offset))
}

// trace pre-computes a popularity-weighted repository choice per request.
func (e *Env) trace(weights []int64) ([]int, error) {
	return popularity.Trace(weights, e.Requests, e.Seed+seedTrace)
}

// Seed offsets: one stream per concern, disjoint from the synth
// generator's own offsets (which derive from spec.Seed directly).
const (
	seedTrace   = 0x7261ce  // popularity trace choices
	seedArrive  = 0xa1217e  // arrival processes
	seedMix     = 0x301d    // push/pull interleave
	seedPayload = 0x9a710ad // pushed payload content
)

// Scenario provisions a serving stack on a serve.Group and supplies the
// per-request operations of a workload. Setup must leave everything the
// ops need running; teardown is the caller's single g.Shutdown.
type Scenario interface {
	Name() string
	Setup(ctx context.Context, g *serve.Group, env *Env) (func(i int) Op, error)
}

// population is one synthetic Hub: the dataset, its repository metadata,
// and the pullable repository universe with its popularity weights.
type population struct {
	ds      *synth.Dataset
	repos   []manifest.Repository
	names   []string
	weights []int64
}

// newPopulation generates the synthetic Hub at the env's scale and
// collects the pullable (public, latest-tagged) repositories, so traces
// only contain requests that must succeed.
func newPopulation(env *Env) (*population, error) {
	spec := synth.MaterializeSpec(env.Scale)
	if env.Seed != 0 {
		spec.Seed = env.Seed
	}
	ds, err := synth.Generate(spec)
	if err != nil {
		return nil, err
	}
	p := &population{ds: ds, repos: synth.Repositories(ds)}
	for i := range ds.Repos {
		if !ds.Repos[i].Downloadable() {
			continue
		}
		p.names = append(p.names, p.repos[i].Name)
		p.weights = append(p.weights, max(p.repos[i].PullCount, 1))
	}
	if len(p.names) == 0 {
		return nil, fmt.Errorf("trafficsim: no pullable repositories at scale %g", env.Scale)
	}
	return p, nil
}

// provision generates the env's population and stands it up behind
// topology t: the stack's origin is materialized with every image (then
// extra, when set, adds the scenario's own content) before anything is
// served. site.Repos lists repositories beyond the population's.
func provision(g *serve.Group, env *Env, t topology.Topology, site topology.Site, extra func(*registry.Registry) error) (*population, *topology.Stack, error) {
	p, err := newPopulation(env)
	if err != nil {
		return nil, nil, err
	}
	site.Repos = append(append([]manifest.Repository(nil), p.repos...), site.Repos...)
	site.Fill = func(reg *registry.Registry) error {
		if _, err := synth.Materialize(p.ds, reg); err != nil || extra == nil {
			return err
		}
		return extra(reg)
	}
	stack, err := topology.Provision(g, t, site)
	return p, stack, err
}

// sharded is provision on an n-node cluster (2 when nodes <= 0) behind
// its router. The router cache is pinned to coalescing-only so runs
// measure the nodes, not the router's memory.
func sharded(g *serve.Group, env *Env, nodes, replicas int, nodeBW int64) (*population, *topology.Stack, error) {
	if nodes <= 0 {
		nodes = 2
	}
	return provision(g, env, topology.Topology{Nodes: nodes, Replicas: replicas},
		topology.Site{NodeBandwidth: nodeBW, RouterCacheBytes: -1}, nil)
}

// pullImage fetches a repository's latest manifest and streams every
// layer blob, returning total bytes moved. readBPS > 0 throttles the
// client's blob reads to that rate (the slow-client shape); zero reads
// at full speed.
func pullImage(ctx context.Context, client *registry.Client, clk Clock, repo string, readBPS int64) (int64, error) {
	m, _, err := client.ManifestContext(ctx, repo, "latest")
	if err != nil {
		return 0, err
	}
	var total int64
	for _, l := range m.Layers {
		rc, _, err := client.BlobContext(ctx, repo, l.Digest)
		if err != nil {
			return total, err
		}
		n, err := throttledDiscard(ctx, clk, rc, readBPS)
		rc.Close()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// throttledDiscard drains r, pacing reads to bps bytes/second on the
// clock when bps > 0 — a client on a slow link holding the response
// stream open. The server-visible effect (long-lived blob streams) is
// what the slow-client scenario measures.
func throttledDiscard(ctx context.Context, clk Clock, r io.Reader, bps int64) (int64, error) {
	if bps <= 0 {
		return io.Copy(io.Discard, r)
	}
	buf := make([]byte, 8<<10)
	var total int64
	for {
		n, err := r.Read(buf)
		if n > 0 {
			total += int64(n)
			pause := time.Duration(float64(n) / float64(bps) * float64(time.Second))
			if serr := clk.Sleep(ctx, pause); serr != nil {
				return total, serr
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}
