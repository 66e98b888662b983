package synth

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/digest"
	"repro/internal/dist"
	"repro/internal/filetype"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/tarutil"
)

// Materialized maps model identifiers to the real content digests produced
// during materialization.
type Materialized struct {
	// LayerDigests[i] is the digest of layer i's gzipped tarball.
	LayerDigests []digest.Digest
	// LayerSizes[i] is the compressed blob size.
	LayerSizes []int64
	// ManifestDigests[i] is the digest of image i's manifest.
	ManifestDigests []digest.Digest
	// TotalBytes is the sum of unique layer blob sizes.
	TotalBytes int64
}

// Materialize renders the dataset into the registry as real content: every
// layer becomes a gzip-compressed tarball whose files carry correct magic
// numbers (classifier round-trip) and deterministic per-unique-file bytes
// (so file-level dedup on real digests reproduces the model's duplication
// structure). Repositories and latest-tag manifests are registered so the
// crawler → downloader → analyzer pipeline runs against the wire format.
//
// Use specs from MaterializeSpec: materializing a DefaultSpec dataset at
// non-trivial scale would write the full multi-GB byte volume.
func Materialize(d *Dataset, reg *registry.Registry) (*Materialized, error) {
	return MaterializeWithPolicy(d, reg, 0)
}

// MaterializeWithPolicy is Materialize with the paper's §IV-A(a) storage
// policy knob: layers whose uncompressed content (FLS) is below
// uncompressedUnder bytes are stored as plain tarballs instead of gzip —
// "it can be beneficial to store small layers uncompressed in the registry
// to reduce pull latencies". Zero disables the policy.
func MaterializeWithPolicy(d *Dataset, reg *registry.Registry, uncompressedUnder int64) (*Materialized, error) {
	mat := &Materialized{
		LayerDigests:    make([]digest.Digest, len(d.Layers)),
		LayerSizes:      make([]int64, len(d.Layers)),
		ManifestDigests: make([]digest.Digest, len(d.Images)),
	}

	// Render and push every unique layer once.
	for i := range d.Layers {
		compress := uncompressedUnder <= 0 || d.Layers[i].FLS >= uncompressedUnder
		blob, err := RenderLayerTar(d, LayerID(i), compress)
		if err != nil {
			return nil, fmt.Errorf("synth: rendering layer %d: %w", i, err)
		}
		dg, err := reg.PushBlob(blob)
		if err != nil {
			return nil, fmt.Errorf("synth: pushing layer %d: %w", i, err)
		}
		mat.LayerDigests[i] = dg
		mat.LayerSizes[i] = int64(len(blob))
		mat.TotalBytes += int64(len(blob))
	}

	// Repositories, configs and manifests.
	for ri := range d.Repos {
		r := &d.Repos[ri]
		reg.CreateRepo(r.Name, r.Private)
		if !r.Downloadable() {
			continue
		}
		imgID := ImageID(r.Image)
		layers := d.ImageLayers(imgID)
		descs := make([]manifest.Descriptor, len(layers))
		for j, l := range layers {
			descs[j] = manifest.Descriptor{
				MediaType: manifest.MediaTypeLayer,
				Size:      mat.LayerSizes[l],
				Digest:    mat.LayerDigests[l],
			}
		}
		cfg, m, err := BuildImage(Created(imgID), descs)
		if err != nil {
			return nil, fmt.Errorf("synth: image %d: %w", imgID, err)
		}
		if _, err := reg.PushBlob(cfg); err != nil {
			return nil, err
		}
		md, err := reg.PushManifest(r.Name, "latest", m)
		if err != nil {
			return nil, err
		}
		mat.ManifestDigests[imgID] = md
	}
	return mat, nil
}

// BuildImage renders an image's config blob and the manifest naming it and the
// given layers. Every path that puts an image into a registry —
// Materialize in process, the live study and the traffic scenarios over
// the wire — builds it here, so equal inputs yield the same manifest
// digest whichever way the image arrives. The caller stores cfg before
// the manifest.
func BuildImage(created string, layers []manifest.Descriptor) (cfg []byte, m *manifest.Manifest, err error) {
	cfg, err = json.Marshal(manifest.Config{Architecture: "amd64", OS: "linux", Created: created})
	if err != nil {
		return nil, nil, err
	}
	m, err = manifest.New(manifest.Descriptor{
		MediaType: manifest.MediaTypeConfig,
		Size:      int64(len(cfg)),
		Digest:    digest.FromBytes(cfg),
	}, layers)
	return cfg, m, err
}

// Created is a dataset image's build date, spread over the paper's crawl
// month.
func Created(img ImageID) string {
	return fmt.Sprintf("2017-05-%02dT00:00:00Z", 1+int(img)%30)
}

// LayerDescriptor describes a rendered layer blob for a manifest.
func LayerDescriptor(blob []byte) manifest.Descriptor {
	return manifest.Descriptor{MediaType: manifest.MediaTypeLayer, Size: int64(len(blob)), Digest: digest.FromBytes(blob)}
}

// RenderLayer builds the gzip-compressed tarball for one layer. The byte
// stream is deterministic in the dataset seed and layer id; every instance
// of a unique file renders identical bytes (FileContent), so real content
// digests reproduce the model's duplicate structure exactly.
func RenderLayer(d *Dataset, l LayerID) ([]byte, error) {
	return RenderLayerTar(d, l, true)
}

// RenderLayerTar renders one layer as a tarball, gzip-compressed or plain
// (the uncompressed small-layer storage policy).
func RenderLayerTar(d *Dataset, l LayerID, compress bool) ([]byte, error) {
	lay := &d.Layers[l]
	var buf bytes.Buffer
	var b *tarutil.Builder
	if compress {
		var err error
		b, err = tarutil.NewGzipBuilder(&buf, 0)
		if err != nil {
			return nil, err
		}
	} else {
		b = tarutil.NewBuilder(&buf)
	}

	// Directory skeleton: a chain realizing MaxDepth, then siblings
	// attached round-robin at every chain level.
	dirs := make([]string, 0, lay.DirCount)
	parent := ""
	for depth := int32(0); depth < lay.MaxDepth; depth++ {
		name := fmt.Sprintf("d%d", depth)
		if depth == 0 {
			// Salt the root directory with the layer id so two layers
			// with identical contents still produce distinct blobs —
			// model layers are distinct entities and must stay so after
			// materialization.
			name = fmt.Sprintf("l%x", uint32(l))
		}
		if parent != "" {
			name = parent + "/" + name
		}
		dirs = append(dirs, name)
		parent = name
	}
	// Siblings hang off chain levels 0..MaxDepth-2 so no directory ever
	// exceeds MaxDepth.
	chainLen := int(lay.MaxDepth)
	for len(dirs) < int(lay.DirCount) {
		anchor := ""
		if chainLen >= 2 {
			anchor = dirs[len(dirs)%(chainLen-1)] + "/"
		}
		dirs = append(dirs, fmt.Sprintf("%ss%d", anchor, len(dirs)))
	}
	for _, dir := range dirs {
		if err := b.Dir(dir); err != nil {
			return nil, err
		}
	}

	// Files, spread across directories; instance position disambiguates
	// the rare same-file-twice-in-one-layer path collision.
	used := make(map[string]bool, lay.refN)
	for pos, f := range d.LayerFiles(l) {
		name := filetype.SuggestName(d.Files[f].Type, uint64(f))
		join := func(n string) string {
			if len(dirs) == 0 {
				return n
			}
			return dirs[pos%len(dirs)] + "/" + n
		}
		path := join(name)
		if used[path] {
			// Same unique file twice in one layer landing in the same
			// directory: rename only the basename (the directory part must
			// stay, or the analyzer would census phantom parent dirs), in
			// a way that preserves name-based classification.
			if name == "Makefile" {
				path = join(fmt.Sprintf("Makefile.dup%d", pos))
			} else {
				path = join(fmt.Sprintf("dup%d-%s", pos, name))
			}
		}
		used[path] = true
		if err := b.File(path, FileContent(d, f)); err != nil {
			return nil, err
		}
	}
	if err := b.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FileContent returns the deterministic byte content of a unique file. All
// instances share it; its magic number matches the file's type; its
// compressibility is drawn from the Fig. 4 calibrated distribution so
// materialized layer compression ratios land near the paper's.
func FileContent(d *Dataset, f FileID) []byte {
	uf := &d.Files[f]
	if uf.Type == filetype.EmptyFile || uf.Size == 0 {
		return []byte{}
	}
	rng := dist.SplitRNG(d.Spec.Seed^0x46696C65 /* "File" */, uint64(f))
	ratio := dist.Clamped{
		Inner: dist.FitLogNormal(d.Spec.CompressionMedian, d.Spec.CompressionP90),
		Min:   1, Max: d.Spec.CompressionMax,
	}.Sample(rng)
	entropy := 1 / ratio
	content := filetype.Generate(uf.Type, uf.Size, entropy, rng)
	// Stamp the unique-file id into the tail (printable hex, safe for text
	// types and past every magic header) so distinct unique files always
	// render distinct bytes even at equal type, size and filler seed
	// coincidences.
	if n := len(content); n >= 16 {
		copy(content[n-16:], fmt.Sprintf("%016x", uint64(f)))
	}
	return content
}

// Repositories converts the dataset's repo table into the metadata form the
// hubapi search server and popularity analyses consume.
func Repositories(d *Dataset) []manifest.Repository {
	out := make([]manifest.Repository, len(d.Repos))
	for i := range d.Repos {
		r := &d.Repos[i]
		tags := []string{}
		if r.HasLatest {
			tags = append(tags, "latest")
		}
		out[i] = manifest.Repository{
			Name:      r.Name,
			Official:  r.Official,
			PullCount: r.Pulls,
			Private:   r.Private,
			Tags:      tags,
		}
	}
	return out
}
