package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/synth"
)

// image is one pullable image of the corpus.
type image struct {
	repo     string
	pulls    int64
	digest   digest.Digest // manifest digest
	manifest *manifest.Manifest
}

// corpus is a workload's generated input: a synthetic Hub rendered into a
// plain in-memory registry. It is the generator's output, not the program
// under test: every set-up copies from it into the topology it measures,
// and its render time is reported beside the metrics, not inside them.
//
// The corpus is fixed per workload (spec and spec seed are constants); the
// benchmark seed draws the op list over it. Per-op cost follows bytes and
// synth's size distributions are heavy-tailed, so a corpus redrawn per
// seed would move every per-op metric by more than any bound.
type corpus struct {
	ds       *synth.Dataset
	src      *registry.Registry
	repos    []manifest.Repository
	images   []image
	private  map[string]bool
	wire     int64 // bytes of every distinct blob in src
	renderS  float64
	specName string
	scale    float64
}

func newCorpus(specName string, scale float64) (*corpus, error) {
	t0 := time.Now()
	var spec synth.Spec
	switch specName {
	case "materialize":
		spec = synth.MaterializeSpec(scale)
	case "dedup-sweep":
		spec = synth.DedupSweepSpec(scale)
	default:
		return nil, fmt.Errorf("unknown corpus spec %q", specName)
	}
	ds, err := synth.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	src := registry.New(blobstore.NewMemory())
	if _, err := synth.Materialize(ds, src); err != nil {
		return nil, fmt.Errorf("materializing corpus: %w", err)
	}
	c := &corpus{
		ds: ds, src: src, repos: synth.Repositories(ds),
		private: map[string]bool{}, wire: src.Blobs().TotalBytes(),
		specName: specName, scale: scale,
	}
	for _, r := range c.repos {
		c.private[r.Name] = r.Private
		if r.Private {
			continue
		}
		md, err := src.ResolveTag(r.Name, "latest")
		if err != nil {
			continue // no latest tag: not pullable, as on the Hub
		}
		raw, err := readBlob(src.Blobs(), md)
		if err != nil {
			return nil, err
		}
		m, err := manifest.Unmarshal(raw)
		if err != nil {
			return nil, fmt.Errorf("corpus manifest %s: %w", md.Short(), err)
		}
		c.images = append(c.images, image{
			repo: r.Name, pulls: max(r.PullCount, 1), digest: md, manifest: m,
		})
	}
	if len(c.images) == 0 {
		return nil, fmt.Errorf("corpus %s at scale %g has no pullable image", specName, scale)
	}
	c.renderS = time.Since(t0).Seconds()
	return c, nil
}

func readBlob(s blobstore.Store, d digest.Digest) ([]byte, error) {
	rc, _, err := s.Get(d)
	if err != nil {
		return nil, fmt.Errorf("corpus blob %s: %w", d.Short(), err)
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// seed copies the corpus into dst the way cluster.Seed fills a node: every
// repository is registered, the blobs that own(key) accepts are streamed
// in by digest, and tags are set where own accepts the repository key. A
// nil own copies everything.
func (c *corpus) seed(dst *registry.Registry, own func(key string) bool) error {
	names := c.src.Repos()
	for _, name := range names {
		dst.CreateRepo(name, c.private[name])
	}
	copyBlob := func(d digest.Digest) error {
		if dst.Blobs().Has(d) {
			return nil
		}
		rc, _, err := c.src.Blobs().Get(d)
		if err != nil {
			return err
		}
		defer rc.Close()
		_, err = dst.Blobs().PutStream(d, rc)
		return err
	}
	for _, d := range c.src.Blobs().Digests() {
		if own == nil || own(d.String()) {
			if err := copyBlob(d); err != nil {
				return fmt.Errorf("seeding %s: %w", d.Short(), err)
			}
		}
	}
	for _, name := range names {
		if own != nil && !own(repoKey(name)) {
			continue
		}
		tags, err := c.src.Tags(name)
		if err != nil {
			return err
		}
		for _, tag := range tags {
			md, err := c.src.ResolveTag(name, tag)
			if err != nil {
				return err
			}
			if err := copyBlob(md); err != nil {
				return fmt.Errorf("seeding manifest %s: %w", md.Short(), err)
			}
			if err := dst.SetTag(name, tag, md); err != nil {
				return err
			}
		}
	}
	return nil
}

// repoKey is the ring key the cluster places repository-scoped state
// under (cluster.repoKey is unexported; the fan-out routes by-tag manifest
// GETs with it, so seeding must agree).
func repoKey(name string) string { return "repo/" + name }

// Seed offsets keep the benchmark's random streams apart.
const (
	seedSkewed  = 0x407
	seedUniform = 0xc01d
	seedSample  = 0x9054
	seedPasses  = 0x57d7
)

// opList draws one round's ops from the benchmark seed. An op is an int64
// argument the workload interprets: an index into corpus.images for the
// pull and push workloads, a downloader jitter seed for a study pass.
//
//   - skewed: every image as often as the corpus's own per-repo pull
//     counts make it expected in n draws, in seeded order.
//   - uniform: whole seeded permutations of the images, repeated to n, so
//     every image is requested equally often and a round's bytes do not
//     depend on the seed.
//   - passes: n pass seeds.
func opList(kind string, c *corpus, seed int64, n int) ([]int64, error) {
	out := make([]int64, 0, n)
	switch kind {
	case "skewed":
		var total float64
		for i := range c.images {
			total += float64(c.images[i].pulls)
		}
		// Image i gets its expected share of the n draws, n*pulls/total,
		// rounded so the counts sum to n (largest remainders first). Only
		// the order is random: the bytes a round moves do not depend on
		// the seed, which drawing with replacement would not give.
		type share struct {
			image int
			frac  float64
		}
		shares := make([]share, len(c.images))
		for i := range c.images {
			want := float64(n) * float64(c.images[i].pulls) / total
			whole := int(want)
			shares[i] = share{i, want - float64(whole)}
			for k := 0; k < whole; k++ {
				out = append(out, int64(i))
			}
		}
		sort.SliceStable(shares, func(a, b int) bool { return shares[a].frac > shares[b].frac })
		for k := 0; len(out) < n; k++ {
			out = append(out, int64(shares[k%len(shares)].image))
		}
		rng := rand.New(rand.NewSource(seed + seedSkewed))
		rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	case "uniform":
		rng := rand.New(rand.NewSource(seed + seedUniform))
		for len(out) < n {
			for _, i := range rng.Perm(len(c.images)) {
				if len(out) < n {
					out = append(out, int64(i))
				}
			}
		}
	case "passes":
		rng := rand.New(rand.NewSource(seed + seedPasses))
		for len(out) < n {
			out = append(out, rng.Int63())
		}
	default:
		return nil, fmt.Errorf("unknown op list kind %q", kind)
	}
	return out, nil
}
