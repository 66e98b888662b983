package synth

import (
	"fmt"

	"repro/internal/digest"
	"repro/internal/filetype"
)

// FileID indexes Dataset.Files (the unique-file universe).
type FileID uint32

// LayerID indexes Dataset.Layers.
type LayerID uint32

// ImageID indexes Dataset.Images.
type ImageID uint32

// UniqueFile is one distinct file content in the universe. Instances of the
// file appear in layers via Dataset.LayerFiles; Repeat is the total
// instance count across the dataset.
type UniqueFile struct {
	Size   int64
	Type   filetype.Type
	Repeat int32
}

// Layer is one unique layer. FLS ("files in layer size") is the sum of
// contained instance sizes; CLS the compressed tarball size; Refs the
// number of images referencing the layer (§V-A).
type Layer struct {
	refOff   int64
	refN     int32
	Refs     int32
	DirCount int32
	MaxDepth int32
	FLS      int64
	CLS      int64
}

// FileCount returns the number of file instances in the layer.
func (l *Layer) FileCount() int { return int(l.refN) }

// Image is one downloaded latest-tag image.
type Image struct {
	layerOff int32
	layerN   int32
	Repo     int32
}

// Repo is one Docker Hub repository.
type Repo struct {
	Name      string
	Pulls     int64
	Official  bool
	Private   bool // pull requires authentication
	HasLatest bool
	// Image is the index of the repo's latest image, or -1 when the image
	// could not be downloaded (auth or missing tag).
	Image int32
}

// Downloadable reports whether the repository's latest image is publicly
// pullable.
func (r *Repo) Downloadable() bool { return !r.Private && r.HasLatest }

// Dataset is the complete synthetic Hub model. All slices are
// index-addressed; the flat backing arrays keep per-entity overhead at a
// few bytes so model-mode runs scale to millions of file instances.
type Dataset struct {
	Spec   Spec
	Files  []UniqueFile
	Layers []Layer
	Images []Image
	Repos  []Repo

	// EmptyLayer is the globally shared empty layer (the one the paper
	// found referenced by 184,171 images).
	EmptyLayer LayerID
	// EmptyFile is the maximally repeated unique file (an empty file in
	// the paper, repeated 53,654,306 times).
	EmptyFile FileID

	fileRefs  []FileID  // layer-major file instance lists
	layerRefs []LayerID // image-major layer lists

	// layerClass is each layer's size class (0 small, 1 medium, 2 large),
	// the joint-structure coupling between image and layer sizes.
	layerClass []uint8
}

// LayerFiles returns the file instances of layer l (do not mutate).
func (d *Dataset) LayerFiles(l LayerID) []FileID {
	lay := &d.Layers[l]
	return d.fileRefs[lay.refOff : lay.refOff+int64(lay.refN)]
}

// ImageLayers returns the layers of image im in manifest order (do not
// mutate).
func (d *Dataset) ImageLayers(im ImageID) []LayerID {
	img := &d.Images[im]
	return d.layerRefs[img.layerOff : img.layerOff+img.layerN]
}

// FileInstances returns the total number of file instances in the dataset.
func (d *Dataset) FileInstances() int64 { return int64(len(d.fileRefs)) }

// TotalFLS returns the uncompressed dataset size (sum of all layer FLS).
func (d *Dataset) TotalFLS() int64 {
	var sum int64
	for i := range d.Layers {
		sum += d.Layers[i].FLS
	}
	return sum
}

// TotalCLS returns the compressed dataset size (sum of all layer CLS).
func (d *Dataset) TotalCLS() int64 {
	var sum int64
	for i := range d.Layers {
		sum += d.Layers[i].CLS
	}
	return sum
}

// LayerDigest returns the stable synthetic digest identifying layer l in
// registry manifests. In materialized mode the real tarball digest is used
// instead; model mode needs an identifier with the same uniqueness
// property.
func (d *Dataset) LayerDigest(l LayerID) digest.Digest {
	return digest.FromUint64(0x4C61_0000_0000_0000 | uint64(l)) // 'La' prefix
}

// Validate checks the structural invariants of the dataset; generation
// bugs fail loudly here rather than corrupting downstream analysis.
func (d *Dataset) Validate() error {
	var refSum int64
	for i := range d.Layers {
		l := &d.Layers[i]
		if l.refOff < 0 || l.refOff+int64(l.refN) > int64(len(d.fileRefs)) {
			return fmt.Errorf("synth: layer %d file refs out of range", i)
		}
		if l.MaxDepth > 0 && l.DirCount < l.MaxDepth {
			return fmt.Errorf("synth: layer %d depth %d exceeds dir count %d", i, l.MaxDepth, l.DirCount)
		}
		if l.FLS < 0 || l.CLS < 0 {
			return fmt.Errorf("synth: layer %d negative size", i)
		}
		refSum += int64(l.refN)
	}
	if refSum != int64(len(d.fileRefs)) {
		return fmt.Errorf("synth: layer file counts sum to %d, have %d instances", refSum, len(d.fileRefs))
	}
	var instByFile = make([]int32, len(d.Files))
	for _, f := range d.fileRefs {
		if int(f) >= len(d.Files) {
			return fmt.Errorf("synth: file ref %d out of range", f)
		}
		instByFile[f]++
	}
	for i, f := range d.Files {
		if instByFile[i] != f.Repeat {
			return fmt.Errorf("synth: file %d repeat %d but %d instances", i, f.Repeat, instByFile[i])
		}
	}
	refCounts := make([]int32, len(d.Layers))
	for i := range d.Images {
		img := ImageID(i)
		seen := make(map[LayerID]bool)
		for _, l := range d.ImageLayers(img) {
			if int(l) >= len(d.Layers) {
				return fmt.Errorf("synth: image %d references layer %d out of range", i, l)
			}
			if seen[l] {
				return fmt.Errorf("synth: image %d references layer %d twice", i, l)
			}
			seen[l] = true
			refCounts[l]++
		}
		if len(seen) == 0 {
			return fmt.Errorf("synth: image %d has no layers", i)
		}
		if r := d.Images[i].Repo; r < 0 || int(r) >= len(d.Repos) {
			return fmt.Errorf("synth: image %d repo %d out of range", i, r)
		}
	}
	for i := range d.Layers {
		if d.Layers[i].Refs != refCounts[i] {
			return fmt.Errorf("synth: layer %d Refs=%d but referenced %d times", i, d.Layers[i].Refs, refCounts[i])
		}
		if refCounts[i] == 0 {
			return fmt.Errorf("synth: layer %d is orphaned", i)
		}
	}
	downloadable := 0
	for i := range d.Repos {
		r := &d.Repos[i]
		if r.Downloadable() {
			downloadable++
			if r.Image < 0 || int(r.Image) >= len(d.Images) {
				return fmt.Errorf("synth: repo %s downloadable but image index %d invalid", r.Name, r.Image)
			}
			if int(d.Images[r.Image].Repo) != i {
				return fmt.Errorf("synth: repo %s image back-reference mismatch", r.Name)
			}
		} else if r.Image != -1 {
			return fmt.Errorf("synth: repo %s not downloadable but has image %d", r.Name, r.Image)
		}
	}
	if downloadable != len(d.Images) {
		return fmt.Errorf("synth: %d downloadable repos but %d images", downloadable, len(d.Images))
	}
	return nil
}
