package trafficsim

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/blobstore"
	"repro/internal/manifest"
	"repro/internal/popularity"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/synth"
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

// population is one materialized synthetic Hub: the source registry plus
// the pullable repository universe and its popularity weights.
type population struct {
	ds      *synth.Dataset
	reg     *registry.Registry
	repos   []manifest.Repository
	names   []string
	weights []int64
}

// newPopulation generates and materializes the synthetic Hub at the env's
// scale and collects the pullable (public, latest-tagged) repositories,
// so traces only contain requests that must succeed.
func newPopulation(env *Env) (*population, error) {
	spec := synth.MaterializeSpec(env.Scale)
	if env.Seed != 0 {
		spec.Seed = env.Seed
	}
	ds, err := synth.Generate(spec)
	if err != nil {
		return nil, err
	}
	reg := registry.New(blobstore.NewMemory())
	if _, err := synth.Materialize(ds, reg); err != nil {
		return nil, err
	}
	p := &population{ds: ds, reg: reg, repos: synth.Repositories(ds)}
	repos := p.repos
	for i := range repos {
		if repos[i].Private {
			continue
		}
		if _, err := reg.ResolveTag(repos[i].Name, "latest"); err != nil {
			continue
		}
		w := repos[i].PullCount
		if w < 1 {
			w = 1
		}
		p.names = append(p.names, repos[i].Name)
		p.weights = append(p.weights, w)
	}
	if len(p.names) == 0 {
		return nil, fmt.Errorf("trafficsim: no pullable repositories at scale %g", env.Scale)
	}
	return p, nil
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

// clientFor builds a registry client over a served endpoint with a
// dedicated tuned transport whose idle connections are discarded on that
// server's shutdown — the drain-friendly wiring the cluster tier
// established.
func clientFor(srv *serve.Server) *registry.Client {
	hc := srv.Client()
	srv.OnShutdown(hc.CloseIdleConnections)
	return &registry.Client{Base: srv.URL(), HTTP: hc}
}
