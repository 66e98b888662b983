package versions

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/tarutil"
)

// syntheticKeyBase marks history-generated (old-version) layer keys; keys
// below it index real dataset layers. Mirrors Generate's key assignment.
const syntheticKeyBase = uint64(1) << 48

// MaterializeHistory pushes every version of every chain into the registry
// as tags v1..vN (vN additionally remains "latest", which Materialize
// already set). Real layers reuse the blobs Materialize pushed; synthetic
// old-version layers are rendered as single-file tarballs sized to their
// modeled CLS.
//
// This closes the loop on the paper's "extend our analysis to other image
// tags" future work: after MaterializeHistory a downloader can fetch
// every tag over the wire and observe cross-version layer sharing.
func MaterializeHistory(d *synth.Dataset, h *History, mat *synth.Materialized, reg *registry.Registry) error {
	oldBlobs := make(map[uint64]manifest.Descriptor)

	for _, chain := range h.Chains {
		repo := d.Repos[chain.Repo].Name
		for vi := range chain.Versions {
			v := &chain.Versions[vi]
			descs := make([]manifest.Descriptor, len(v.Layers))
			for j, l := range v.Layers {
				switch {
				case l.Key < syntheticKeyBase:
					descs[j] = manifest.Descriptor{
						MediaType: manifest.MediaTypeLayer,
						Size:      mat.LayerSizes[l.Key],
						Digest:    mat.LayerDigests[l.Key],
					}
				default:
					desc, ok := oldBlobs[l.Key]
					if !ok {
						blob, err := renderOldLayer(l.Key, l.CLS)
						if err != nil {
							return fmt.Errorf("versions: rendering old layer %#x: %w", l.Key, err)
						}
						if _, err := reg.PushBlob(blob); err != nil {
							return err
						}
						desc = synth.LayerDescriptor(blob)
						oldBlobs[l.Key] = desc
					}
					descs[j] = desc
				}
			}
			// Every version shares the one undated config blob.
			cfg, m, err := synth.BuildImage("", descs)
			if err == nil {
				_, err = reg.PushBlob(cfg)
			}
			if err != nil {
				return fmt.Errorf("versions: manifest for %s v%d: %w", repo, vi+1, err)
			}
			if _, err := reg.PushManifest(repo, fmt.Sprintf("v%d", vi+1), m); err != nil {
				return fmt.Errorf("versions: tagging %s v%d: %w", repo, vi+1, err)
			}
		}
	}
	return nil
}

// renderOldLayer builds a deterministic gzip tarball whose compressed size
// approximates cls: one incompressible file plus framing.
func renderOldLayer(key uint64, cls int64) ([]byte, error) {
	payload := cls - 180 // tar header + gzip framing estimate
	if payload < 0 {
		payload = 0
	}
	rng := rand.New(rand.NewSource(int64(key)))
	content := make([]byte, payload)
	rng.Read(content)
	var buf bytes.Buffer
	b, err := tarutil.NewGzipBuilder(&buf, 0)
	if err != nil {
		return nil, err
	}
	if err := b.File(fmt.Sprintf("old/blob-%x.bin", key), content); err != nil {
		return nil, err
	}
	if err := b.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
