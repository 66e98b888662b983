package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/analytics"
	"repro/internal/analyzer"
	"repro/internal/engine"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/tarutil"
)

// Live mode: the study's registry runs as a resident service with the
// always-on analytics hook on its write path (Topology.Ingest). Instead of
// materializing into the store and analyzing afterwards, every image is
// pushed over HTTP — the hook walks layer bytes in flight — and the
// figures come from the live service's snapshot: the batch assembly over
// the walks it kept, with no store re-read. Optional churn deletes and
// re-pushes a fraction of the population first, exercising the tag table
// and the walk cache the batch study never has.

// live pushes the dataset into the provisioned stack, churns it when the
// topology asks for churn, and takes the analysis from the live service's
// current snapshot. There is no crawl or download: the study never pulls
// anything.
func (s *Study) live(ctx context.Context, res *Result) error {
	// The token authorizes writes to private repositories; the live study
	// pushes the whole population, not just the publicly pullable part.
	client := *res.Stack.Client
	client.Token = "live-study"
	if err := s.livePush(ctx, res, &client); err != nil {
		return err
	}
	if s.Topology.Churn > 0 {
		if err := s.liveChurn(ctx, res.Dataset, &client); err != nil {
			return err
		}
	}
	a, err := res.Stack.Origin.Live.Snapshot().Result()
	if err != nil {
		return fmt.Errorf("core: rendering live analysis: %w", err)
	}
	res.Analysis = a
	return nil
}

// livePush drives the dataset through the wire write path: every unique
// layer is uploaded once (the ingest hook walks it before the 201),
// then every downloadable repo's config and manifest. Blobs must all be
// stored before any manifest referencing them is PUT, so the two phases
// are separated by a barrier; within a phase the uploads fan out across
// the run's workers. Concurrent arrival order does not matter: snapshots
// order images by (repo, tag), not by arrival.
func (s *Study) livePush(ctx context.Context, res *Result, client *registry.Client) error {
	d := res.Dataset

	// Repositories are an administrative registration, not a wire write.
	type repoPush struct {
		name  string
		imgID synth.ImageID
	}
	var repos []repoPush
	for ri := range d.Repos {
		r := &d.Repos[ri]
		res.Stack.Origin.Registry.CreateRepo(r.Name, r.Private)
		if r.Downloadable() {
			repos = append(repos, repoPush{r.Name, synth.ImageID(r.Image)})
		}
	}

	// Phase 1: unique layers, each under the first repo referencing it.
	type layerPush struct {
		id   synth.LayerID
		repo string
	}
	var layers []layerPush
	owner := make(map[synth.LayerID]bool, len(d.Layers))
	for _, rp := range repos {
		for _, l := range d.ImageLayers(rp.imgID) {
			if !owner[l] {
				owner[l] = true
				layers = append(layers, layerPush{l, rp.name})
			}
		}
	}
	// descs[l] is written by the one worker that pushes layer l and read
	// after the barrier.
	descs := make([]manifest.Descriptor, len(d.Layers))
	// The push's own builders, one per worker at a time, go with it.
	builders := engine.NewFreeList[tarutil.Builder]()
	err := engine.ForEach(ctx, s.Workers, len(layers), func(ctx context.Context, i int) error {
		lp := layers[i]
		b := builders.Get()
		blob, err := synth.RenderLayer(d, lp.id, b)
		builders.Put(b)
		if err != nil {
			return fmt.Errorf("rendering layer %d: %w", lp.id, err)
		}
		if _, err := client.PushBlobContext(ctx, lp.repo, blob); err != nil {
			return fmt.Errorf("pushing layer %d: %w", lp.id, err)
		}
		descs[lp.id] = synth.LayerDescriptor(blob)
		return nil
	})
	if err != nil {
		return err
	}

	// Phase 2: configs and manifests; synth.BuildImage makes the live
	// registry content-identical to a materialized one.
	return engine.ForEach(ctx, s.Workers, len(repos), func(ctx context.Context, i int) error {
		rp := repos[i]
		ids := d.ImageLayers(rp.imgID)
		layers := make([]manifest.Descriptor, len(ids)) // never nil: [] and null marshal differently
		for j, l := range ids {
			layers[j] = descs[l]
		}
		cfg, m, err := synth.BuildImage(synth.Created(rp.imgID), layers)
		if err == nil {
			_, err = client.PushBlobContext(ctx, rp.name, cfg)
		}
		if err == nil {
			_, err = client.PushManifestContext(ctx, rp.name, "latest", m)
		}
		if err != nil {
			return fmt.Errorf("pushing %s: %w", rp.name, err)
		}
		return nil
	})
}

// liveChurn deletes and re-pushes a deterministic random fraction
// (Topology.Churn) of the tagged population over the wire: every churned
// repo's latest tag is DELETEd (the image leaves the tag table) and its
// manifest re-PUT (it returns, analyzed from the still-cached walks). The
// final figures must be identical to a churn-free run.
func (s *Study) liveChurn(ctx context.Context, d *synth.Dataset, client *registry.Client) error {
	var names []string
	for ri := range d.Repos {
		r := &d.Repos[ri]
		if r.Downloadable() {
			names = append(names, r.Name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	k := min(max(int(s.Topology.Churn*float64(len(names))+0.5), 1), len(names))
	perm := rand.New(rand.NewSource(s.Spec.Seed + 1109)).Perm(len(names))
	for _, pi := range perm[:k] {
		name := names[pi]
		m, _, err := client.ManifestContext(ctx, name, "latest")
		if err != nil {
			return fmt.Errorf("churning %s: %w", name, err)
		}
		if err := client.DeleteManifestContext(ctx, name, "latest"); err != nil {
			return fmt.Errorf("churn delete %s: %w", name, err)
		}
		if _, err := client.PushManifestContext(ctx, name, "latest", m); err != nil {
			return fmt.Errorf("churn re-push %s: %w", name, err)
		}
	}
	return nil
}

// LiveBatchFigures renders the reference figures for a live run the slow
// way: enumerate the registry's surviving images, batch-analyze their
// stored bytes, and render. A correct live service makes this
// bit-identical to the run's own Figures — goldencheck's live rows assert
// exactly that.
func LiveBatchFigures(res *Result, workers int) ([]report.Figure, error) {
	reg := res.Stack.Origin.Registry
	images, err := analytics.RegistryImages(reg)
	if err != nil {
		return nil, err
	}
	ana, err := analyzer.AnalyzeStore(reg.Blobs(), images, workers)
	if err != nil {
		return nil, err
	}
	return report.All(&report.Source{
		Analysis: ana,
		Repos:    synth.Repositories(res.Dataset),
	}), nil
}
